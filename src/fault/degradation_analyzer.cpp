#include "fault/degradation_analyzer.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace pr {

void DegradationAnalyzer::on_run_start(const RunStartEvent& event) {
  fail_since_.assign(event.disk_count, kNeverTime);
  degraded_by_disk_.assign(event.disk_count, 0);
}

void DegradationAnalyzer::on_disk_fail(const DiskFailEvent& event) {
  if (event.mode != FaultMode::kFailStop) return;
  ++failures_;
  if (event.disk < fail_since_.size()) fail_since_[event.disk] = event.time;
  if (failed_now_ == 0) window_open_ = event.time;
  ++failed_now_;
}

void DegradationAnalyzer::on_disk_recover(const DiskRecoverEvent& event) {
  ++recoveries_;
  downtime_ += event.downtime;
  recovery_sum_ += event.downtime;
  if (event.downtime > recovery_max_) recovery_max_ = event.downtime;
  if (event.disk < fail_since_.size()) fail_since_[event.disk] = kNeverTime;
  if (failed_now_ > 0) {
    --failed_now_;
    if (failed_now_ == 0) degraded_window_ += event.time - window_open_;
  }
}

void DegradationAnalyzer::on_request_degraded(
    const RequestDegradedEvent& event) {
  switch (event.outcome) {
    case DegradedOutcome::kRedirected: ++redirected_; break;
    case DegradedOutcome::kSlowed: ++slowed_; break;
    case DegradedOutcome::kLost: ++lost_; break;
    case DegradedOutcome::kReconstructed: ++reconstructed_; break;
  }
  if (event.intended < degraded_by_disk_.size()) {
    ++degraded_by_disk_[event.intended];
  }
}

void DegradationAnalyzer::on_rebuild_start(const RebuildStartEvent& event) {
  (void)event;
  ++rebuilds_started_;
}

void DegradationAnalyzer::on_rebuild_complete(
    const RebuildCompleteEvent& event) {
  ++rebuilds_completed_;
  rebuilt_bytes_ += event.bytes;
  rebuild_sum_ += event.duration;
  if (event.duration > rebuild_max_) rebuild_max_ = event.duration;
}

void DegradationAnalyzer::on_run_end(const RunEndEvent& event) {
  if (failed_now_ > 0) {
    // Failures still open are charged through the horizon from each disk's
    // own fail instant; the window union closes at the horizon too.
    degraded_window_ += event.horizon - window_open_;
    for (const Seconds since : fail_since_) {
      if (since < kNeverTime) downtime_ += event.horizon - since;
    }
    failed_now_ = 0;
  }
}

void DegradationAnalyzer::merge(const DegradationAnalyzer& other) {
  failures_ += other.failures_;
  recoveries_ += other.recoveries_;
  lost_ += other.lost_;
  redirected_ += other.redirected_;
  slowed_ += other.slowed_;
  reconstructed_ += other.reconstructed_;
  rebuilds_started_ += other.rebuilds_started_;
  rebuilds_completed_ += other.rebuilds_completed_;
  rebuilt_bytes_ += other.rebuilt_bytes_;
  // Duration sums fold as mean x count, not as the raw sums: the fleet
  // reports were pinned with this arithmetic, and the two can differ in
  // the last bit of a mean.
  rebuild_sum_ += Seconds{other.mean_rebuild_time().value() *
                          static_cast<double>(other.rebuilds_completed_)};
  rebuild_max_ = std::max(rebuild_max_, other.rebuild_max_);
  downtime_ += other.downtime_;
  recovery_sum_ += Seconds{other.mean_recovery_time().value() *
                           static_cast<double>(other.recoveries_)};
  recovery_max_ = std::max(recovery_max_, other.recovery_max_);
  degraded_window_ += other.degraded_window_;
}

void DegradationAnalyzer::merge_into(SimResult& result) const {
  const auto ms = [](Seconds s) {
    return static_cast<std::uint64_t>(std::llround(s.value() * 1e3));
  };
  result.counters["fault.downtime_ms"] += ms(downtime_);
  result.counters["fault.degraded_window_ms"] += ms(degraded_window_);
  result.counters["fault.mean_recovery_ms"] += ms(mean_recovery_time());
  result.counters["fault.max_recovery_ms"] += ms(max_recovery_time());
  // Per-disk split only where a failure actually degraded traffic, so runs
  // predating this metric keep their exact historical counter sets.
  for (std::size_t d = 0; d < degraded_by_disk_.size(); ++d) {
    if (degraded_by_disk_[d] == 0) continue;
    result.counters["fault.disk" + std::to_string(d) +
                    ".degraded_requests"] += degraded_by_disk_[d];
  }
  if (rebuilds_completed_ > 0) {
    result.counters["redundancy.mean_rebuild_ms"] += ms(mean_rebuild_time());
    result.counters["redundancy.max_rebuild_ms"] += ms(max_rebuild_time());
  }
}

}  // namespace pr
