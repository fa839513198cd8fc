// drpm_policy.h — DRPM-style pure power-management baseline (Gurumurthi
// et al., ISCA'03 — the paper's [13]; §2's other mainstream family).
//
// No data placement intelligence at all: files are spread round-robin and
// never move. Energy saving comes purely from per-disk dynamic speed
// modulation — a disk drops to low speed after the idleness threshold,
// serves isolated requests at low speed, and is promoted back to high
// speed only when its backlog shows sustained load. This is the scheme
// family whose "frequent speed switching" §3.5 warns about: with no
// workload shaping, every disk sees the full popularity mix and cycles on
// its own, which is exactly what PRESS penalises.
//
// (The real DRPM has more than two speed levels; the paper's own
// simulator — and therefore this reproduction — uses the two-speed disks
// of §3.2, so DRPM here means "two-speed dynamic modulation".)
#pragma once

#include "sim/array_sim.h"

namespace pr {

struct DrpmConfig {
  /// Idle time before dropping to low speed.
  Seconds idleness_threshold{15.0};
  /// Backlog that promotes a low-speed disk back to high speed.
  Seconds promotion_backlog{0.050};
  /// Aggressive modulation: promote on *every* request that finds the
  /// disk at low speed (performance-first tuning). This is the
  /// "aggressively switch disk speed to save some amount of energy"
  /// behaviour §3.5 warns against; the default (false) serves isolated
  /// requests at low speed and promotes only under backlog.
  bool aggressive = false;
};

class DrpmPolicy final : public Policy {
 public:
  explicit DrpmPolicy(DrpmConfig config = {});

  [[nodiscard]] std::string name() const override {
    return config_.aggressive ? "DRPM-aggressive" : "DRPM";
  }

  void initialize(ArrayContext& ctx) override;

 private:
  DrpmConfig config_;
};

}  // namespace pr
