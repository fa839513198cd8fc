// static_policy.h — the no-energy-saving reference point: every disk runs
// at high speed for the whole simulation, files are spread round-robin (in
// size order, like the other policies' initial layouts, so comparisons
// isolate the *energy management* rather than the layout). This is the
// implicit baseline the paper's §5.2 invokes when noting that a READ array
// under heavy load "has no disk spin downs, and thus disks are always
// running at high speed".
#pragma once

#include "sim/array_sim.h"

namespace pr {

class StaticPolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "Static"; }

  void initialize(ArrayContext& ctx) override {
    for (DiskId d = 0; d < ctx.disk_count(); ++d) {
      ctx.set_initial_speed(d, DiskSpeed::kHigh);
      ctx.set_dpm(d, DpmConfig{});  // no spin-downs, no spin-ups
    }
    ctx.place_round_robin();
  }
};

}  // namespace pr
