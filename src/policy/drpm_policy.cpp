#include "policy/drpm_policy.h"

#include <stdexcept>

namespace pr {

DrpmPolicy::DrpmPolicy(DrpmConfig config) : config_(config) {
  if (!(config_.idleness_threshold > Seconds{0.0})) {
    throw std::invalid_argument("DrpmPolicy: H must be > 0");
  }
  if (config_.promotion_backlog < Seconds{0.0}) {
    throw std::invalid_argument("DrpmPolicy: negative promotion backlog");
  }
}

void DrpmPolicy::initialize(ArrayContext& ctx) {
  for (DiskId d = 0; d < ctx.disk_count(); ++d) {
    ctx.set_initial_speed(d, DiskSpeed::kHigh);
    DpmConfig dpm;
    dpm.spin_down_when_idle = true;
    dpm.idleness_threshold = config_.idleness_threshold;
    dpm.spin_up_to_serve = config_.aggressive;
    dpm.spin_up_backlog = config_.promotion_backlog;
    ctx.set_dpm(d, dpm);
  }
  ctx.place_round_robin();
}

}  // namespace pr
