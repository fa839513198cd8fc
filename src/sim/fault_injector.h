// fault_injector.h — the array simulator's fault feature and the parity
// feature it holds. FaultInjector applies the attached FaultPlan to
// ArrayContext's FaultState in time order, chases serves on slowed disks
// and plans degraded reads; the simulator builds one only for a non-empty
// plan. ParityEngine reconstructs degraded reads from surviving stripe
// units, counts data loss and runs the paced rebuild (redundancy/
// rebuild.h) as real I/O; the FaultInjector builds one only for a parity
// scheme. Each interns its counters when built, so a run without the
// feature reports none of them.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fault/fault_plan.h"
#include "redundancy/rebuild.h"
#include "redundancy/scheme.h"
#include "sim/array_sim.h"
#include "util/contracts.h"

namespace pr {

class ParityEngine {
 public:
  /// `scheme` must be a parity scheme that outlives the engine; the
  /// rebuild switch and pacing come from ctx.config().redundancy.
  ParityEngine(ArrayContext& ctx, RedundancyScheme& scheme)
      : ctx_(ctx), scheme_(scheme),
        h_reconstructed_(ctx.counters_.intern("sim.requests_reconstructed")),
        h_data_loss_(ctx.counters_.intern("redundancy.data_loss_events")) {
    PR_PRECONDITION(scheme.parity(), "ParityEngine needs a parity scheme");
    const RedundancyConfig& config = ctx.config().redundancy;
    if (!config.rebuild) return;
    rebuild_.configure(config.rebuild_mbps, config.rebuild_chunk);
    h_steps_ = ctx.counters_.intern("redundancy.rebuild_steps");
    h_wakeups_ = ctx.counters_.intern("redundancy.rebuild_wakeups");
    h_started_ = ctx.counters_.intern("redundancy.rebuilds_started");
    h_completed_ = ctx.counters_.intern("redundancy.rebuilds_completed");
    h_aborted_ = ctx.counters_.intern("redundancy.rebuilds_aborted");
  }

  /// The reads that reconstruct `chunk`, whose disk has failed: one read
  /// of chunk.bytes on each surviving unit of its stripe. Empty when the
  /// stripe cannot be rebuilt (another of its units is down). The span
  /// stays valid until the next call.
  [[nodiscard]] std::span<const StripeChunk> plan_reconstruct(
      FileId file, const StripeChunk& chunk) {
    reads_.clear();
    DiskId unused = kInvalidDisk;
    // A parity scheme answers kReconstruct or kLost (redundancy/scheme.h).
    if (scheme_.degraded_read(ctx_, file, chunk.bytes, chunk.disk, unused,
                              reads_) != DegradedAction::kReconstruct) {
      reads_.clear();
    }
    ctx_.require_disks(reads_);
    return reads_;
  }

  /// Book one reconstructed chunk of a request that is being served.
  void book_reconstruct(Seconds arrival, FileId file, DiskId failed,
                        std::uint32_t sources, Bytes bytes) {
    ctx_.counters_.add(h_reconstructed_);
    if (SimObserver* const obs = ctx_.observer_; obs != nullptr) {
      obs->on_stripe_reconstruct(
          StripeReconstructEvent{arrival, file, failed, sources, bytes});
      obs->on_request_degraded(
          RequestDegradedEvent{arrival, file, failed, failed,
                               DegradedOutcome::kReconstructed, 1.0});
    }
  }

  /// Fail-stop of `disk` at `at`: count a data-loss event if it overlaps
  /// another failure the layout cannot survive (one per new failure, the
  /// Markov model's absorbing transition), then start the paced rebuild
  /// of everything placed on the disk.
  void on_fail(Seconds at, DiskId disk) {
    for (DiskId other = 0; other < ctx_.disk_count(); ++other) {
      if (other == disk || !ctx_.fault_.failed(other)) continue;
      if (scheme_.loses_data(disk, other)) {
        ctx_.counters_.add(h_data_loss_);
        break;
      }
    }
    if (!ctx_.config().redundancy.rebuild || rebuild_.rebuilding(disk)) {
      return;
    }
    Bytes total = 0;
    for (FileId f = 0; f < ctx_.placement_.size(); ++f) {
      if (ctx_.placement_[f] == disk) total += ctx_.files().by_id(f).size;
    }
    rebuild_.start(disk, at, total);
    ctx_.counters_.add(h_started_);
    if (ctx_.observer_ != nullptr) {
      ctx_.observer_->on_rebuild_start(RebuildStartEvent{at, disk, total});
    }
  }

  /// `disk` came back by external means (a plan kRecover) while a rebuild
  /// was still copying: drop the now-moot rebuild.
  void on_recover(DiskId disk) {
    if (rebuild_.abort(disk)) ctx_.counters_.add(h_aborted_);
  }

  /// Due time of the next rebuild step; kNeverTime when none is pending.
  [[nodiscard]] Seconds next_time() const { return rebuild_.next_time(); }

  /// Turn the step due at `at` into I/O: a read on each surviving stripe
  /// source plus the reconstructed write on the rebuilt disk (its ledger
  /// models the replacement spindle), all queued FCFS behind foreground
  /// traffic. Returns the disk whose rebuild this step completes, or
  /// kInvalidDisk; the caller returns a rebuilt disk to service.
  DiskId run_rebuild_step(Seconds at) {
    RebuildScheduler::Step step;
    if (!rebuild_.pop_due(at, step)) return kInvalidDisk;
    step_disks_.assign(1, step.disk);
    scheme_.rebuild_sources(ctx_, step.disk, step.index, step_disks_);
    const Joules energy_before = ctx_.observed_energy(step_disks_);
    for (std::size_t i = 1; i < step_disks_.size(); ++i) {
      rebuild_io(step_disks_[i], at, step.bytes);
    }
    rebuild_io(step.disk, at, step.bytes);
    ctx_.counters_.add(h_steps_);
    SimObserver* const obs = ctx_.observer_;
    if (obs != nullptr) {
      obs->on_rebuild_progress(RebuildProgressEvent{
          at, step.disk, step.done, step.total,
          ctx_.observed_energy(step_disks_) - energy_before});
    }
    if (!step.completes) return kInvalidDisk;
    ctx_.counters_.add(h_completed_);
    if (obs != nullptr) {
      obs->on_rebuild_complete(RebuildCompleteEvent{
          at, step.disk, step.total, at - step.started});
    }
    return step.disk;
  }

 private:
  /// One internal rebuild serve on `d`: wake the disk if it is spun down
  /// (TransitionCause::kRebuild, the energy cost of staying protected; a
  /// disk already at high speed makes no transition), pay the transfer,
  /// and drop any pending idle check (no re-arm, as for migrations: the
  /// next foreground serve re-arms).
  void rebuild_io(DiskId d, Seconds at, Bytes bytes) {
    ctx_.transition(d, DiskSpeed::kHigh, at, TransitionCause::kRebuild,
                    h_wakeups_);
    if (bytes > 0) ctx_.disks_[d].serve(at, bytes, /*internal=*/true);
    ctx_.cancel_idle_check(d);
  }

  ArrayContext& ctx_;
  RedundancyScheme& scheme_;
  RebuildScheduler rebuild_;
  std::vector<StripeChunk> reads_;
  /// The rebuilt disk followed by its step's sources.
  std::vector<DiskId> step_disks_;
  CounterRegistry::Handle h_reconstructed_;
  CounterRegistry::Handle h_data_loss_;
  CounterRegistry::Handle h_steps_ = 0;
  CounterRegistry::Handle h_wakeups_ = 0;
  CounterRegistry::Handle h_started_ = 0;
  CounterRegistry::Handle h_completed_ = 0;
  CounterRegistry::Handle h_aborted_ = 0;
};

class FaultInjector {
 public:
  /// `plan` must be non-empty and outlive the injector. `scheme` is the
  /// resolved redundancy seam (nullptr: degraded requests are lost).
  FaultInjector(ArrayContext& ctx, const FaultPlan& plan,
                RedundancyScheme* scheme)
      : ctx_(ctx), plan_(plan), scheme_(scheme),
        h_faults_(ctx.counters_.intern("sim.faults_injected")),
        h_recovers_(ctx.counters_.intern("sim.fault_recoveries")),
        h_slowdowns_(ctx.counters_.intern("sim.fault_slowdowns")),
        h_lost_(ctx.counters_.intern("sim.requests_lost")),
        h_redirected_(ctx.counters_.intern("sim.requests_degraded")),
        h_slowed_(ctx.counters_.intern("sim.requests_slowed")) {
    PR_PRECONDITION(!plan.empty(), "FaultInjector needs a non-empty plan");
    ctx.fault_.resize(ctx.disk_count());
    if (scheme != nullptr && scheme->parity()) parity_.emplace(ctx, *scheme);
  }

  /// The earliest pending plan event or rebuild step; kNeverTime when
  /// neither is left. Feeds the simulator's wake hint and time advance.
  [[nodiscard]] Seconds next_time() const {
    const auto& events = plan_.events();
    const Seconds next =
        cursor_ < events.size() ? events[cursor_].time : kNeverTime;
    return parity_ ? std::min(next, parity_->next_time()) : next;
  }

  /// Apply the plan event, or run the rebuild step, due at `at` (the
  /// current next_time()). A plan event wins a tie with a rebuild step.
  void fire(Seconds at) {
    const auto& events = plan_.events();
    if (cursor_ < events.size() &&
        (!parity_ || events[cursor_].time <= parity_->next_time())) {
      apply(events[cursor_++]);
      return;
    }
    if (const DiskId rebuilt = parity_->run_rebuild_step(at);
        rebuilt != kInvalidDisk) {
      // A completed rebuild returns the disk to service through the plan
      // machinery, so the observed downtime *is* the repair time.
      apply(FaultEvent{at, rebuilt, FaultKind::kRecover, 1.0});
    }
  }

  /// Apply one plan event to the live FaultState; announce it (and bump
  /// the matching counter) only when it actually changed something —
  /// idempotent events stay invisible.
  void apply(const FaultEvent& e) {
    const FaultState::ApplyResult applied = ctx_.fault_.apply(e);
    if (!applied.changed) return;
    SimObserver* const obs = ctx_.observer_;
    switch (e.kind) {
      case FaultKind::kFail:
        ctx_.counters_.add(h_faults_);
        if (obs != nullptr) {
          obs->on_disk_fail(
              DiskFailEvent{e.time, e.disk, FaultMode::kFailStop, 1.0});
        }
        if (parity_) parity_->on_fail(e.time, e.disk);
        break;
      case FaultKind::kRecover:
        ctx_.counters_.add(h_recovers_);
        if (parity_) parity_->on_recover(e.disk);
        if (obs != nullptr) {
          obs->on_disk_recover(
              DiskRecoverEvent{e.time, e.disk, applied.downtime});
        }
        break;
      case FaultKind::kSlowdown:
        ctx_.counters_.add(h_slowdowns_);
        if (obs != nullptr) {
          obs->on_disk_fail(
              DiskFailEvent{e.time, e.disk, FaultMode::kSlowdown, e.factor});
        }
        break;
    }
  }

  /// Route a request around failed disks: each chunk on one is redirected
  /// to a live copy or rebuilt from parity reads, replanning `serves`.
  /// Returns false when some chunk has neither — the whole request is
  /// booked lost (no response-time sample, no completion event, no
  /// after_serve). A surviving request's degraded chunks are booked here,
  /// before any serve, so their events precede the serves' spin-ups.
  [[nodiscard]] bool reroute(const Request& req,
                             std::span<const StripeChunk>& serves,
                             DiskId& primary) {
    if (std::none_of(serves.begin(), serves.end(), [&](const StripeChunk& c) {
          return ctx_.fault_.failed(c.disk);
        })) {
      return true;
    }
    if (!plan(req, serves)) {
      ctx_.counters_.add(h_lost_);
      if (ctx_.observer_ != nullptr) {
        ctx_.observer_->on_request_degraded(RequestDegradedEvent{
            req.arrival, req.file, primary, primary, DegradedOutcome::kLost,
            1.0});
      }
      return false;
    }
    for (const PlannedDegrade& pd : degrades_) book(req, pd);
    // A redirected first chunk moves the request's primary disk; a
    // reconstructed one keeps the failed disk (served_by == intended).
    if (degrades_.front().intended == primary) {
      primary = degrades_.front().served_by;
    }
    serves = serves_;
    return true;
  }

  /// Injected slowdown: a disk slowed by factor f pays an extra internal
  /// transfer of (f − 1) × bytes right behind the request (average-cost
  /// seek even in positional mode — degraded media, not head travel).
  /// Returns the chunk's new completion time.
  Seconds chase_slowdown(DiskId d, Seconds completion, Bytes bytes) {
    const double factor = ctx_.fault_.slowdown(d);
    if (!(factor > 1.0)) return completion;
    const auto extra =
        static_cast<Bytes>((factor - 1.0) * static_cast<double>(bytes));
    if (extra == 0) return completion;
    slowed_ = true;
    slowdown_ = std::max(slowdown_, factor);
    return ctx_.disks_[d].serve(completion, extra, /*internal=*/true);
  }

  /// Book the request just served as slowed if any of its chunks paid a
  /// slowdown, then reset for the next request.
  void finish_request(const Request& req, DiskId primary) {
    if (!slowed_) return;
    ctx_.counters_.add(h_slowed_);
    if (ctx_.observer_ != nullptr) {
      ctx_.observer_->on_request_degraded(
          RequestDegradedEvent{req.arrival, req.file, primary, primary,
                               DegradedOutcome::kSlowed, slowdown_});
    }
    slowed_ = false;
    slowdown_ = 1.0;
  }

 private:
  /// A degraded chunk of the request being planned, booked only if the
  /// whole request survives: redirected to `served_by`, or (with parity)
  /// reconstructed from `sources` reads.
  struct PlannedDegrade {
    DiskId intended = kInvalidDisk;
    DiskId served_by = kInvalidDisk;
    std::uint32_t sources = 0;
    Bytes bytes = 0;
  };

  /// Fill serves_ and degrades_ for `chunks`; false on the first chunk
  /// that has no live source. Books nothing.
  bool plan(const Request& req, std::span<const StripeChunk> chunks) {
    serves_.clear();
    degrades_.clear();
    for (const StripeChunk& chunk : chunks) {
      if (!ctx_.fault_.failed(chunk.disk)) {
        serves_.push_back(chunk);
        continue;
      }
      if (parity_) {
        const auto reads = parity_->plan_reconstruct(req.file, chunk);
        if (reads.empty()) return false;
        degrades_.push_back(
            PlannedDegrade{chunk.disk, chunk.disk,
                           static_cast<std::uint32_t>(reads.size()),
                           chunk.bytes});
        serves_.insert(serves_.end(), reads.begin(), reads.end());
        continue;
      }
      copy_reads_.clear();
      DiskId redirect = kInvalidDisk;
      const DegradedAction action =
          scheme_ == nullptr
              ? DegradedAction::kLost
              : scheme_->degraded_read(ctx_, req.file, chunk.bytes,
                                       chunk.disk, redirect, copy_reads_);
      PR_ASSERT(action != DegradedAction::kReconstruct,
                "kReconstruct from a non-parity redundancy scheme");
      if (action != DegradedAction::kRedirect ||
          redirect >= ctx_.disk_count() || ctx_.fault_.failed(redirect)) {
        return false;
      }
      serves_.push_back(StripeChunk{redirect, chunk.bytes});
      degrades_.push_back(
          PlannedDegrade{chunk.disk, redirect, 0, chunk.bytes});
    }
    return true;
  }

  void book(const Request& req, const PlannedDegrade& pd) {
    if (parity_) {
      parity_->book_reconstruct(req.arrival, req.file, pd.intended,
                                pd.sources, pd.bytes);
      return;
    }
    ctx_.counters_.add(h_redirected_);
    if (ctx_.observer_ != nullptr) {
      ctx_.observer_->on_request_degraded(
          RequestDegradedEvent{req.arrival, req.file, pd.intended,
                               pd.served_by, DegradedOutcome::kRedirected,
                               1.0});
    }
  }

  ArrayContext& ctx_;
  const FaultPlan& plan_;
  /// Index of the plan's next unapplied event.
  std::size_t cursor_ = 0;
  RedundancyScheme* scheme_;
  std::optional<ParityEngine> parity_;
  std::vector<StripeChunk> serves_;
  std::vector<StripeChunk> copy_reads_;
  std::vector<PlannedDegrade> degrades_;
  /// Whether the request being served paid a slowdown, and the worst
  /// factor across its chunks.
  bool slowed_ = false;
  double slowdown_ = 1.0;
  CounterRegistry::Handle h_faults_;
  CounterRegistry::Handle h_recovers_;
  CounterRegistry::Handle h_slowdowns_;
  CounterRegistry::Handle h_lost_;
  CounterRegistry::Handle h_redirected_;
  CounterRegistry::Handle h_slowed_;
};

}  // namespace pr
