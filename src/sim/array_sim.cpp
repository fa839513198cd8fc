#include "sim/array_sim.h"

#include <algorithm>
#include <array>
#include <span>
#include <stdexcept>

#include "redundancy/scheme.h"
#include "sim/controller.h"
#include "sim/fault_injector.h"
#include "util/contracts.h"

namespace pr {

ArrayContext::ArrayContext(const SimConfig& config, const FileSet& files)
    : config_(&config), files_(&files) {
  if (config.disk_count == 0) {
    throw std::invalid_argument("ArrayContext: disk_count == 0");
  }
  idle_timer_.resize(config.disk_count);
  h_policy_transitions_ = counters_.intern("sim.policy_transitions");
  soa_ = std::make_unique<DiskArraySoA>(config.disk_count);
  disks_.reserve(config.disk_count);
  for (std::size_t i = 0; i < config.disk_count; ++i) {
    disks_.emplace_back(*soa_, static_cast<std::uint32_t>(i),
                        static_cast<DiskId>(i), config.disk_params,
                        config.initial_speed);
    if (config.seek_curve) disks_.back().set_seek_curve(*config.seek_curve);
  }
  dpm_.assign(config.disk_count, DpmConfig{});
  placement_.assign(files.size(), kInvalidDisk);
  epoch_counts_.assign(files.size(), 0);
  if (config.seek_curve) {
    file_cylinder_.assign(files.size(), 0);
    alloc_cursor_.assign(config.disk_count, 0);
  }
}

void ArrayContext::assign_cylinders(FileId f, DiskId d) {
  if (file_cylinder_.empty()) return;
  const auto& geometry = config_->seek_curve->geometry();
  const Bytes per_cylinder =
      std::max<Bytes>(1, config_->disk_params.capacity / geometry.cylinders);
  const Bytes size = files_->by_id(f).size;
  const auto span = static_cast<Cylinder>(
      std::max<Bytes>(1, (size + per_cylinder - 1) / per_cylinder));
  file_cylinder_[f] = alloc_cursor_[d] % geometry.cylinders;
  alloc_cursor_[d] = (alloc_cursor_[d] + span) % geometry.cylinders;
}

void ArrayContext::place(FileId f, DiskId d) {
  if (f >= placement_.size()) {
    throw std::invalid_argument("ArrayContext::place: unknown file");
  }
  if (d >= disks_.size()) {
    throw std::invalid_argument("ArrayContext::place: unknown disk");
  }
  placement_[f] = d;
  assign_cylinders(f, d);
}

void ArrayContext::place_round_robin(DiskId first) {
  if (first >= disks_.size()) {
    throw std::invalid_argument("ArrayContext::place_round_robin: bad disk");
  }
  const std::vector<FileId> order = files_->ids_by_size_ascending();
  const std::size_t span = disks_.size() - first;
  for (std::size_t i = 0; i < order.size(); ++i) {
    place(order[i], static_cast<DiskId>(first + i % span));
  }
}

void ArrayContext::migrate(FileId f, DiskId to) {
  if (f >= placement_.size() || to >= disks_.size()) {
    throw std::invalid_argument("ArrayContext::migrate: bad arguments");
  }
  const DiskId from = placement_[f];
  if (from == kInvalidDisk) {
    throw std::logic_error("ArrayContext::migrate: file never placed");
  }
  if (from == to) return;
  const Bytes bytes = files_->by_id(f).size;
  const std::array<DiskId, 2> pair{from, to};
  const Joules energy_before = observed_energy(pair);
  for (const DiskId d : pair) {
    disks_[d].serve(now_, bytes, /*internal=*/true);
    cancel_idle_check(d);
  }
  placement_[f] = to;
  assign_cylinders(f, to);
  ++migrations_;
  migration_bytes_ += bytes;
  if (observer_ != nullptr) {
    observer_->on_migration(MigrationEvent{
        now_, f, from, to, bytes, observed_energy(pair) - energy_before});
  }
}

void ArrayContext::background_copy(DiskId from, DiskId to, Bytes bytes) {
  if (from >= disks_.size() || to >= disks_.size()) {
    throw std::invalid_argument("ArrayContext::background_copy: bad disk");
  }
  const std::array<DiskId, 2> pair{from, to};
  const std::span<const DiskId> disks(pair.data(), from == to ? 1 : 2);
  const Joules energy_before = observed_energy(disks);
  for (const DiskId d : disks) {
    disks_[d].serve(now_, bytes, /*internal=*/true);
    cancel_idle_check(d);
  }
  if (observer_ != nullptr) {
    // (source − before) + target, not (source + target) − before: the two
    // round differently, and the JSONL goldens pin this one.
    const Joules energy = observed_energy(disks.first(1)) - energy_before +
                          observed_energy(disks.subspan(1));
    observer_->on_background_copy(
        BackgroundCopyEvent{now_, from, to, bytes, energy});
  }
}

void ArrayContext::set_initial_speed(DiskId d, DiskSpeed speed) {
  if (d >= disks_.size()) {
    throw std::invalid_argument("ArrayContext::set_initial_speed: bad disk");
  }
  disks_[d].set_initial_speed(speed);
}

Seconds ArrayContext::request_transition(DiskId d, DiskSpeed target) {
  if (d >= disks_.size()) {
    throw std::invalid_argument("ArrayContext::request_transition: bad disk");
  }
  return transition(d, target, now_, TransitionCause::kPolicy,
                    h_policy_transitions_);
}

Seconds ArrayContext::transition(DiskId d, DiskSpeed target, Seconds at,
                                 TransitionCause cause,
                                 CounterRegistry::Handle counter) {
  Disk& disk = disks_[d];
  const DiskSpeed from = disk.speed();
  const Joules energy_before =
      observer_ != nullptr ? disk.ledger().energy : Joules{0.0};
  const Seconds finish = disk.transition(at, target);
  if (from == target) return finish;
  counters_.add(counter);
  if (observer_ != nullptr) {
    observer_->on_speed_transition(SpeedTransitionEvent{
        at, finish, d, from, target, cause,
        disk.ledger().energy - energy_before});
    observer_->on_disk_state_change(
        DiskStateChangeEvent{at, d, power_state(from), power_state(target)});
  }
  return finish;
}

Joules ArrayContext::observed_energy(std::span<const DiskId> disks) const {
  Joules sum{0.0};
  if (observer_ == nullptr) return sum;
  for (const DiskId d : disks) sum += disks_[d].ledger().energy;
  return sum;
}

void ArrayContext::set_dpm(DiskId d, const DpmConfig& config) {
  if (d >= dpm_.size()) {
    throw std::invalid_argument("ArrayContext::set_dpm: bad disk");
  }
  dpm_[d] = config;
}

void ArrayContext::set_idleness_threshold(DiskId d, Seconds h) {
  if (d >= dpm_.size()) {
    throw std::invalid_argument("ArrayContext::set_idleness_threshold: bad disk");
  }
  dpm_[d].idleness_threshold = h;
}

void ArrayContext::bump(std::string_view counter, std::uint64_t by) {
  counters_.add(counter, by);
}

void ArrayContext::schedule_idle_check(DiskId d, Seconds completion) {
  if (!dpm_[d].spin_down_when_idle) return;
  const Seconds deadline = completion + dpm_[d].idleness_threshold;
  if (deadline < wake_hint_) wake_hint_ = deadline;
  idle_timer_.arm(d, deadline, idle_seq_++);
}

void ArrayContext::cancel_idle_check(DiskId d) { idle_timer_.disarm(d); }

void ArrayContext::require_disks(std::span<const StripeChunk> chunks) const {
  for (const StripeChunk& chunk : chunks) {
    if (chunk.disk >= disks_.size()) {
      throw std::logic_error("policy routed to nonexistent disk");
    }
  }
}

/// Unit of request pull from the source (see RequestSource::next_batch).
/// Large enough to amortize the virtual dispatch, small enough that a
/// batch of Requests stays resident in L1.
constexpr std::size_t kRequestBatch = 256;

/// The request loop: pull, route/stripe, serve, the idle timer, epochs
/// and finalize. A live feature's component is called at its own point:
/// Controller::admit then FaultInjector::reroute at dispatch,
/// chase_slowdown per chunk serve, finish_request and Controller::record
/// after the serves, FaultInjector::next_time/fire while advancing time,
/// Controller::close_epoch at each boundary. Defined in this TU only —
/// the header names it solely for the friendship grant.
class ArraySimulator {
 public:
  ArraySimulator(const SimConfig& config, const FileSet& files,
                 RequestSource& source, Policy& policy, SimObserver* observer,
                 const FaultPlan* faults)
      : source_(source), policy_(policy), ctx_(config, files),
        owned_scheme_(make_scheme(config.redundancy, config.disk_count)),
        epoch_len_(config.epoch),
        h_epochs_(ctx_.counters_.intern("sim.epochs")),
        h_idle_checks_(ctx_.counters_.intern("sim.idle_checks")),
        h_idle_stale_(ctx_.counters_.intern("sim.idle_checks_stale")),
        h_idle_deferred_(ctx_.counters_.intern("sim.idle_checks_deferred")),
        h_spin_downs_(ctx_.counters_.intern("sim.spin_downs")),
        h_spin_vetoed_(ctx_.counters_.intern("sim.spin_downs_vetoed")),
        h_spin_ups_(ctx_.counters_.intern("sim.spin_ups_to_serve")) {
    ctx_.observer_ = observer;
    // Redundancy seam resolution: a parity scheme configured on the array
    // wins; otherwise the policy may expose its own copy set (replicas,
    // the MAID cache) as a scheme; otherwise degraded requests are lost.
    // The config scheme is built (and validated) even on fault-free runs
    // so a bad config errors deterministically.
    if (faults != nullptr && !faults->empty()) {
      faults_.emplace(ctx_, *faults,
                      owned_scheme_ != nullptr ? owned_scheme_.get()
                                               : policy_.redundancy());
    }
    if (config.control.enabled) control_.emplace(ctx_, policy_);
  }

  SimResult run() {
    policy_.initialize(ctx_);
    validate_placement();
    emit_run_start();
    arm_initial_idle_checks();

    next_epoch_ = epoch_len_;
    Seconds horizon{0.0};
    Seconds last_arrival{0.0};
    bool any_requests = false;
    SimObserver* const obs = ctx_.observer_;

    recompute_wake_hint();
    // Requests are pulled in batches (one virtual dispatch per batch, not
    // per request) and each batch is processed against the cached wake
    // hint: while arrivals stay strictly below the earliest pending
    // deferred event, the drain machinery is one comparison. Both are
    // transport/caching details — the per-request event interleaving is
    // unchanged, which the seed-layout and scheduler goldens pin.
    std::array<Request, kRequestBatch> batch;
    for (std::size_t filled = 0;
         (filled = source_.next_batch(batch.data(), batch.size())) > 0;) {
    for (std::size_t bi = 0; bi < filled; ++bi) {
      const Request& req = batch[bi];
      // Incremental input validation: a streaming source has no upfront
      // pass, so the materialized path's contract errors are re-raised
      // here, verbatim, the moment a violation arrives.
      if (any_requests && req.arrival < last_arrival) {
        throw std::invalid_argument("run_simulation: trace is not sorted");
      }
      if (req.file == kInvalidFile || req.file >= ctx_.files().size()) {
        throw std::invalid_argument(
            "run_simulation: trace references unknown file");
      }
      last_arrival = req.arrival;
      any_requests = true;

      if (!(req.arrival < ctx_.wake_hint_)) {
        advance_until(req.arrival);
        fire_epochs_until(req.arrival);
        recompute_wake_hint();
      }
      ctx_.now_ = req.arrival;

      // Per-epoch popularity tracking (Fig. 6 line 9, the "Access
      // Tracking Manager").
      ++ctx_.epoch_counts_[req.file];
      ++ctx_.epoch_requests_;

      if (obs != nullptr) pending_ = RequestCompleteEvent{};

      // One request path. A whole-file request is a one-chunk plan on the
      // routed disk; a striped policy's stripe() result is the many-chunk
      // form. Both pass the same disk check, admission, degraded planner
      // and serve loop, and complete when the slowest chunk finishes.
      std::vector<StripeChunk> striped;
      StripeChunk whole;
      std::span<const StripeChunk> serves;
      if (policy_.striped()) {
        striped = policy_.stripe(ctx_, req);
        if (striped.empty()) {
          throw std::logic_error("striped policy produced no chunks");
        }
        serves = striped;
      } else {
        whole = StripeChunk{policy_.route(ctx_, req), req.size};
        serves = {&whole, 1};
      }
      ctx_.require_disks(serves);
      // The first chunk's disk is the request's primary disk. Admission
      // precedes fault handling, so a shed request plans no degraded read.
      // A shed or lost request is not served, but its popularity bump
      // above stands: the demand existed.
      DiskId primary = serves.front().disk;
      if (control_ && !control_->admit(req, primary)) continue;
      if (faults_ && !faults_->reroute(req, serves, primary)) continue;
      Seconds completion{0.0};
      for (const StripeChunk& chunk : serves) {
        completion = std::max(completion, serve_on(chunk.disk, req.arrival,
                                                   chunk.bytes, req.file));
      }
      if (faults_) faults_->finish_request(req, primary);
      horizon = std::max(horizon, completion);

      const double rt = (completion - req.arrival).value();
      result_.response_time.add(rt);
      result_.response_time_sample.add(rt);
      ++result_.user_requests;
      if (control_) control_->record(rt);

      if (obs != nullptr) {
        pending_.arrival = req.arrival;
        pending_.completion = completion;
        pending_.file = req.file;
        pending_.disk = primary;
        pending_.bytes = req.size;
        pending_.stripe_chunks = static_cast<std::uint32_t>(serves.size());
        obs->on_request_complete(pending_);
      }

      // after_serve may add background I/O (MAID cache fills) that
      // disarms its disks; the idle checks are armed afterwards, against
      // the disks' true ready times.
      policy_.after_serve(ctx_, req, primary);
      for (const DiskId d : touched_) {
        ctx_.schedule_idle_check(d, ctx_.disks_[d].ready_time());
      }
      touched_.clear();
    }
    }

    if (any_requests) {
      horizon = std::max(horizon, last_arrival);
    }
    // Trailing events inside the horizon still count (a final spin-down
    // whose idle window closed before the last completion, a fault that
    // strikes between the last arrival and the last completion).
    advance_until(horizon);

    finalize(horizon);
    return std::move(result_);
  }

 private:
  /// Serve `bytes` of `file` on disk `d` at `arrival`, applying
  /// spin-up-to-serve, and remember the disk for idle-check arming.
  /// Returns completion.
  Seconds serve_on(DiskId d, Seconds arrival, Bytes bytes, FileId file) {
    PR_ASSERT(d < ctx_.disks_.size(), "serve_on: unchecked disk id");
    Disk& disk = ctx_.disks_[d];
    SimObserver* const obs = ctx_.observer_;
    // Ledger snapshots so the request event carries exact per-operation
    // deltas (busy time, energy including spin-up + lazily accounted
    // idle). Only taken when an observer is attached.
    Seconds busy_before{0.0};
    Joules energy_before{0.0};
    if (obs != nullptr) {
      busy_before = disk.ledger().busy_time;
      energy_before = disk.ledger().energy;
      const Seconds queued = disk.ready_time() - arrival;
      if (queued > pending_.backlog) pending_.backlog = queued;
    }
    if (disk.speed() == DiskSpeed::kLow) {
      const bool promote_always = ctx_.dpm_[d].spin_up_to_serve;
      const Seconds backlog_limit = ctx_.dpm_[d].spin_up_backlog;
      const bool promote_on_load =
          backlog_limit < kNeverTime &&
          disk.ready_time() - arrival > backlog_limit;
      if (promote_always || promote_on_load) {
        ctx_.transition(d, DiskSpeed::kHigh, arrival,
                        TransitionCause::kSpinUpToServe, h_spin_ups_);
      }
    }
    Seconds completion =
        ctx_.positioned_io()
            ? disk.serve_positioned(arrival, bytes, ctx_.cylinder_of(file))
            : disk.serve(arrival, bytes);
    // The slowdown chaser sits inside the observer snapshot, so the
    // request's energy and service-time deltas include it.
    if (faults_) completion = faults_->chase_slowdown(d, completion, bytes);
    if (obs != nullptr) {
      pending_.service_time += disk.ledger().busy_time - busy_before;
      pending_.energy += disk.ledger().energy - energy_before;
    }
    touched_.push_back(d);
    return completion;
  }

  /// Refresh the cached lower bound on the earliest pending deferred
  /// event (see ArrayContext::wake_hint_). Called after every slow-path
  /// drain; schedule_idle_check lowers the hint incrementally in between.
  void recompute_wake_hint() {
    Seconds hint = next_epoch_;
    if (!ctx_.idle_timer_.empty()) {
      hint = std::min(hint, ctx_.idle_timer_.next_time());
    }
    if (faults_) hint = std::min(hint, faults_->next_time());
    ctx_.wake_hint_ = hint;
  }

  /// Advance simulated time to `t`, interleaving plan events and rebuild
  /// steps with the deferred-event stream. Ordering at one instant: epoch
  /// work → fault events → rebuild steps → DPM idle checks (drain_until
  /// runs exclusive up to each fault/rebuild instant, then inclusive to
  /// `t`). The fault-free path collapses to plain drain_until.
  void advance_until(Seconds t) {
    if (faults_) {
      for (Seconds next = faults_->next_time(); next <= t;
           next = faults_->next_time()) {
        drain_until(next, /*inclusive=*/false);
        fire_epochs_until(next);
        ctx_.now_ = next;
        faults_->fire(next);
      }
    }
    drain_until(t);
  }

  void validate_placement() const {
    for (std::size_t f = 0; f < ctx_.placement_.size(); ++f) {
      if (ctx_.placement_[f] == kInvalidDisk) {
        throw std::logic_error("policy left file " + std::to_string(f) +
                               " unplaced");
      }
    }
  }

  void arm_initial_idle_checks() {
    for (DiskId d = 0; d < ctx_.disks_.size(); ++d) {
      ctx_.schedule_idle_check(d, Seconds{0.0});
    }
  }

  /// Process idle deadlines with time <= t (or < t when not inclusive),
  /// and the epoch boundaries that precede them, in order. Every popped
  /// deadline is live: serving a disk re-arms its slot in place and
  /// background I/O disarms it.
  void drain_until(Seconds t, bool inclusive = true) {
    auto& timer = ctx_.idle_timer_;
    while (!timer.empty() && (inclusive ? timer.next_time() <= t
                                        : timer.next_time() < t)) {
      const auto deadline = timer.pop();
      PR_INVARIANT(!(deadline.time < ctx_.now_),
                   "drain_until: idle deadline fired in the past");
      fire_epochs_until(deadline.time);
      ctx_.now_ = deadline.time;
      handle_idle_check(deadline.time, deadline.disk);
    }
  }

  /// A live idle check for disk `d` fired at `at`: spin down if the disk
  /// has genuinely been idle past its (current) threshold.
  void handle_idle_check(Seconds at, DiskId d) {
    Disk& disk = ctx_.disks_[d];
    ctx_.counters_.add(h_idle_checks_);
    if (!ctx_.dpm_[d].spin_down_when_idle) return;
    if (disk.speed() != DiskSpeed::kHigh) return;
    // The threshold may have grown since this check was scheduled (READ's
    // adaptive doubling), or the disk may still be working off queued
    // I/O: honour the *current* deadline. The strict `>` comparison on the
    // deadline (not on the elapsed idle time) guarantees any re-armed
    // event lies strictly in the future — comparing elapsed-vs-H instead
    // can re-arm an event at its own timestamp when floating-point
    // rounding makes (at − idle_since) dip just below H, which livelocks.
    const Seconds idle_since = disk.ready_time();
    const Seconds deadline = idle_since + ctx_.dpm_[d].idleness_threshold;
    if (deadline > at) {
      ctx_.counters_.add(h_idle_deferred_);
      ctx_.idle_timer_.arm(d, deadline, ctx_.idle_seq_++);
      return;
    }
    if (!policy_.allow_spin_down(ctx_, d, at)) {
      ctx_.counters_.add(h_spin_vetoed_);
      return;
    }
    ctx_.transition(d, DiskSpeed::kLow, at, TransitionCause::kDpmIdle,
                    h_spin_downs_);
  }

  void fire_epochs_until(Seconds t) {
    while (next_epoch_ <= t) {
      ctx_.now_ = next_epoch_;
      policy_.on_epoch(ctx_, next_epoch_);
      ctx_.counters_.add(h_epochs_);
#if PR_CONTRACTS_ENABLED
      // Epoch boundaries are the quiescent points where every disk's
      // ledger must conserve: each accounted instant lands in exactly one
      // bucket and energy never goes negative (this is what makes the
      // reported energy/AFR trustworthy between goldens).
      for (const Disk& disk : ctx_.disks_) {
        PR_INVARIANT(disk.ledger_conserves(),
                     "epoch boundary: disk ledger does not conserve");
      }
#endif
      if (ctx_.observer_ != nullptr) {
        // After the policy's boundary work (so its migrations precede the
        // epoch-close event) and before the counts reset.
        ctx_.observer_->on_epoch_end(
            EpochEndEvent{next_epoch_, epoch_index_, ctx_.epoch_requests_});
      }
      // Control closes the loop after the boundary's epoch-end event (its
      // ControlUpdateEvent documents itself as following EpochEndEvent)
      // and before the counts reset, so the policy's decayed counts it
      // reads are the ones on_epoch just produced. Only the epoch
      // controller ever moves the stride.
      if (control_) {
        epoch_len_ = control_->close_epoch(next_epoch_, epoch_index_,
                                           epoch_len_);
      }
      ++epoch_index_;
      std::fill(ctx_.epoch_counts_.begin(), ctx_.epoch_counts_.end(), 0);
      ctx_.epoch_requests_ = 0;
      next_epoch_ += epoch_len_;
    }
  }

  void emit_run_start() {
    if (ctx_.observer_ == nullptr) return;
    RunStartEvent event;
    event.disk_count = ctx_.disks_.size();
    event.file_count = ctx_.files().size();
    event.epoch = ctx_.config().epoch;
    event.initial_speeds.reserve(ctx_.disks_.size());
    for (const Disk& d : ctx_.disks_) event.initial_speeds.push_back(d.speed());
    ctx_.observer_->on_run_start(event);
  }

  void finalize(Seconds horizon) {
    result_.policy_name = policy_.name();
    result_.horizon = horizon;
    result_.ledgers.reserve(ctx_.disks_.size());
    result_.telemetry.reserve(ctx_.disks_.size());
    Joules final_idle{0.0};
    for (auto& disk : ctx_.disks_) {
      const Joules before_close = disk.ledger().energy;
      disk.finish(horizon);
      final_idle += disk.ledger().energy - before_close;
      result_.ledgers.push_back(disk.ledger());
      result_.telemetry.push_back(
          extract_telemetry(disk, ctx_.config().temperature_attribution));
      result_.total_energy += disk.ledger().energy;
      result_.total_transitions += disk.ledger().transitions;
      result_.max_transitions_per_day =
          std::max(result_.max_transitions_per_day,
                   disk.ledger().press_transitions_per_day());
    }
    result_.migrations = ctx_.migrations_;
    result_.migration_bytes = ctx_.migration_bytes_;
    result_.counters = ctx_.counters_.snapshot();
    if (ctx_.observer_ != nullptr) {
      ctx_.observer_->on_run_end(RunEndEvent{
          horizon, static_cast<std::uint64_t>(result_.user_requests),
          result_.total_energy, final_idle});
    }
  }

  RequestSource& source_;
  Policy& policy_;
  ArrayContext ctx_;
  /// The config-owned parity scheme, if any (the FaultInjector may use it
  /// or the policy's copy-set scheme).
  std::unique_ptr<RedundancyScheme> owned_scheme_;
  std::optional<FaultInjector> faults_;
  std::optional<Controller> control_;
  /// The epoch stride: config.epoch unless the epoch controller moves it.
  Seconds epoch_len_{0.0};
  Seconds next_epoch_{0.0};
  std::uint64_t epoch_index_ = 0;
  SimResult result_;
  /// Disks served during the current request (usually one; several for
  /// striped requests), pending idle-check arming.
  std::vector<DiskId> touched_;
  /// Accumulator for the in-flight request's observer event (backlog,
  /// service-time and energy deltas across its chunks); only maintained
  /// while an observer is attached.
  RequestCompleteEvent pending_;

  // Interned core-counter handles (hot-path bumps are one vector add).
  CounterRegistry::Handle h_epochs_;
  CounterRegistry::Handle h_idle_checks_;
  /// Never bumped: the timer heap pops no stale deadline. Interned only so
  /// reports keep sim.idle_checks_stale = 0 and their bytes stay stable.
  CounterRegistry::Handle h_idle_stale_;
  CounterRegistry::Handle h_idle_deferred_;
  CounterRegistry::Handle h_spin_downs_;
  CounterRegistry::Handle h_spin_vetoed_;
  CounterRegistry::Handle h_spin_ups_;
};

SimResult run_simulation(const SimConfig& config, const FileSet& files,
                         RequestSource& source, Policy& policy,
                         SimObserver* observer, const FaultPlan* faults) {
  validate(config.disk_params);
  if (faults != nullptr) faults->validate(config.disk_count);
  ArraySimulator sim(config, files, source, policy, observer, faults);
  return sim.run();
}

SimResult run_simulation(const SimConfig& config, const FileSet& files,
                         const Trace& trace, Policy& policy,
                         SimObserver* observer, const FaultPlan* faults) {
  // Upfront validation preserves the historical contract that a bad trace
  // throws before the policy runs initialize().
  if (!trace.is_sorted()) {
    throw std::invalid_argument("run_simulation: trace is not sorted");
  }
  for (const auto& r : trace.requests) {
    if (r.file == kInvalidFile || r.file >= files.size()) {
      throw std::invalid_argument(
          "run_simulation: trace references unknown file");
    }
  }
  TraceSource source(trace);
  return run_simulation(config, files, source, policy, observer, faults);
}

}  // namespace pr
