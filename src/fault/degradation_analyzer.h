// degradation_analyzer.h — a SimObserver that distills a faulted run into
// the reliability metrics the fault sweep reports: how long the array ran
// degraded, how fast faults healed, how many requests were lost,
// redirected, slowed, or parity-reconstructed — and, per disk, how many
// requests each failure actually degraded. Attach it next to the usual
// recorders (it is read-only like every observer) and call merge_into()
// after the run to fold the time-derived and per-disk metrics into
// SimResult::counters — the aggregate event *counts* are already interned
// by the simulator itself, so merge_into() adds only what the counter
// registry cannot see (durations, per-disk splits).
#pragma once

#include <cstdint>
#include <vector>

#include "obs/observer.h"
#include "sim/metrics.h"

namespace pr {

class DegradationAnalyzer final : public SimObserver {
 public:
  void on_run_start(const RunStartEvent& event) override;
  void on_disk_fail(const DiskFailEvent& event) override;
  void on_disk_recover(const DiskRecoverEvent& event) override;
  void on_request_degraded(const RequestDegradedEvent& event) override;
  void on_rebuild_start(const RebuildStartEvent& event) override;
  void on_rebuild_complete(const RebuildCompleteEvent& event) override;
  void on_run_end(const RunEndEvent& event) override;

  /// Fail-stop faults observed (slowdown announcements excluded).
  [[nodiscard]] std::uint64_t failures() const { return failures_; }
  [[nodiscard]] std::uint64_t recoveries() const { return recoveries_; }
  /// Failures still open when the run ended.
  [[nodiscard]] std::uint64_t unrecovered() const {
    return failures_ - recoveries_;
  }
  [[nodiscard]] std::uint64_t lost_requests() const { return lost_; }
  [[nodiscard]] std::uint64_t redirected_requests() const {
    return redirected_;
  }
  [[nodiscard]] std::uint64_t slowed_requests() const { return slowed_; }
  /// Requests served by parity reconstruction (DegradedOutcome::
  /// kReconstructed).
  [[nodiscard]] std::uint64_t reconstructed_requests() const {
    return reconstructed_;
  }
  /// Degraded requests (any outcome) keyed by the disk the policy
  /// *intended* to serve them — which failure hurt how much. Sized by the
  /// run's disk count after on_run_start.
  [[nodiscard]] const std::vector<std::uint64_t>& degraded_by_disk() const {
    return degraded_by_disk_;
  }
  /// Sum of per-disk down intervals (disk-seconds; overlapping failures
  /// count once per disk). Open failures are charged through the horizon.
  [[nodiscard]] Seconds total_downtime() const { return downtime_; }
  /// Wall-clock union of intervals with >= 1 disk failed — the paper-facing
  /// "degradation window". Open at run end => closed at the horizon.
  [[nodiscard]] Seconds degraded_window() const { return degraded_window_; }
  [[nodiscard]] Seconds mean_recovery_time() const {
    return recoveries_ == 0 ? Seconds{0.0}
                            : Seconds{recovery_sum_.value() /
                                      static_cast<double>(recoveries_)};
  }
  [[nodiscard]] Seconds max_recovery_time() const { return recovery_max_; }
  /// Rebuild-engine observations (zero on runs without parity rebuild).
  [[nodiscard]] std::uint64_t rebuilds_started() const {
    return rebuilds_started_;
  }
  [[nodiscard]] std::uint64_t rebuilds_completed() const {
    return rebuilds_completed_;
  }
  [[nodiscard]] Bytes rebuilt_bytes() const { return rebuilt_bytes_; }
  [[nodiscard]] Seconds mean_rebuild_time() const {
    return rebuilds_completed_ == 0
               ? Seconds{0.0}
               : Seconds{rebuild_sum_.value() /
                         static_cast<double>(rebuilds_completed_)};
  }
  [[nodiscard]] Seconds max_rebuild_time() const { return rebuild_max_; }

  /// Fold another array's finished analysis into this one (a fleet's
  /// shards, in shard order): counts, downtime, the recovery/rebuild
  /// duration sums (each rebuilt as mean x count) and the degraded windows
  /// add; the maxima take the max.
  /// Shards are independent arrays, so the folded window is the sum of
  /// per-array windows, not a wall-clock union across them. The per-disk
  /// split is not merged: its disk ids are local to each array.
  void merge(const DegradationAnalyzer& other);

  /// Add the metrics the registry cannot see to result.counters:
  /// durations in milliseconds, rounded (the fault.*_ms downtime, degraded
  /// window and mean/max recovery counters; the redundancy.*_rebuild_ms
  /// mean/max when a rebuild completed) and the per-disk
  /// degraded-request split (fault.disk<N>.degraded_requests, emitted
  /// only for disks with a nonzero count so fault reports keep their
  /// historical counter sets when no request was degraded). Aggregate
  /// event counts are not re-added — the simulator already interned them
  /// (sim.faults_injected etc.).
  void merge_into(SimResult& result) const;

 private:
  std::uint64_t failures_ = 0;
  std::uint64_t recoveries_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t redirected_ = 0;
  std::uint64_t slowed_ = 0;
  std::uint64_t reconstructed_ = 0;
  std::uint64_t rebuilds_started_ = 0;
  std::uint64_t rebuilds_completed_ = 0;
  Bytes rebuilt_bytes_ = 0;
  Seconds rebuild_sum_{0.0};
  Seconds rebuild_max_{0.0};
  Seconds downtime_{0.0};
  Seconds recovery_sum_{0.0};
  Seconds recovery_max_{0.0};
  // Union-of-intervals tracking: failed_now_ counts currently-failed disks;
  // the window opens on 0 -> 1 and closes on 1 -> 0 (or at the horizon).
  std::uint64_t failed_now_ = 0;
  Seconds window_open_{0.0};
  Seconds degraded_window_{0.0};
  // Per-disk open-failure start (kNeverTime = live), so failures still open
  // at the horizon charge exact downtime from each disk's own fail instant.
  std::vector<Seconds> fail_since_;
  // Degraded requests keyed by RequestDegradedEvent::intended.
  std::vector<std::uint64_t> degraded_by_disk_;
};

}  // namespace pr
