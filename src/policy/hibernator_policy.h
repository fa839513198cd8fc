// hibernator_policy.h — Hibernator-style baseline (Zhu et al., SOSP'05 —
// the paper's [30]; the third §2 power-management scheme PRESS's Fig. 1
// names). Hibernator's signature ideas, adapted to the two-speed disks of
// this reproduction:
//
//   * **coarse-grained speed setting**: disk speeds are only changed at
//     long fixed intervals (Hibernator's "coarse-grained re-evaluation"),
//     never per-request — bounding transition counts by construction
//     (at most one per disk per interval);
//   * **performance guarantee**: the controller watches the observed mean
//     response time; if it exceeds the target, everything is promoted to
//     high speed for the next interval (Hibernator reshuffles tiers to
//     honour its latency SLA);
//   * otherwise the lowest-load disks are parked at low speed, most
//     heavily-loaded kept high, sized so the low set carries little load.
//
// No data migration: like DRPM it manages power only.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/array_sim.h"

namespace pr {

struct HibernatorConfig {
  // Re-evaluation happens at the simulator's epoch boundaries
  // (SimConfig::epoch) — Hibernator's "coarse-grained" interval.
  /// Mean-response-time target; exceeding it forces all-high next
  /// interval.
  Seconds response_target{0.020};
  /// A disk may be parked at low speed when its share of the observed
  /// load is below this fraction of a fair share (1/n).
  double park_load_fraction = 0.5;
};

class HibernatorPolicy final : public Policy {
 public:
  explicit HibernatorPolicy(HibernatorConfig config = {});

  [[nodiscard]] std::string name() const override { return "Hibernator"; }

  void initialize(ArrayContext& ctx) override;
  void after_serve(ArrayContext& ctx, const Request& req, DiskId d) override;
  void on_epoch(ArrayContext& ctx, Seconds now) override;

  [[nodiscard]] std::uint64_t intervals_with_sla_violation() const {
    return sla_violations_;
  }

 private:
  HibernatorConfig config_;
  // Observed within the current interval:
  std::vector<double> disk_busy_estimate_;  // Σ service-time proxy per disk
  double rt_sum_ = 0.0;
  std::uint64_t rt_count_ = 0;
  std::uint64_t sla_violations_ = 0;
};

}  // namespace pr
