#include "policy/hibernator_policy.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace pr {

HibernatorPolicy::HibernatorPolicy(HibernatorConfig config)
    : config_(config) {
  if (!(config_.response_target > Seconds{0.0})) {
    throw std::invalid_argument("HibernatorPolicy: response_target <= 0");
  }
  if (config_.park_load_fraction < 0.0 || config_.park_load_fraction > 1.0) {
    throw std::invalid_argument(
        "HibernatorPolicy: park_load_fraction outside [0, 1]");
  }
}

void HibernatorPolicy::initialize(ArrayContext& ctx) {
  disk_busy_estimate_.assign(ctx.disk_count(), 0.0);
  for (DiskId d = 0; d < ctx.disk_count(); ++d) {
    ctx.set_initial_speed(d, DiskSpeed::kHigh);
    // No per-request DPM at all: speed changes only at interval
    // boundaries (the whole point of coarse granularity).
    ctx.set_dpm(d, DpmConfig{});
  }
  ctx.place_round_robin();
}

void HibernatorPolicy::after_serve(ArrayContext& ctx, const Request& req,
                                   DiskId d) {
  // The disk's ready time right after the serve is this request's
  // completion (nothing else has been scheduled yet).
  const double rt = (ctx.disk(d).ready_time() - req.arrival).value();
  rt_sum_ += rt;
  ++rt_count_;
  disk_busy_estimate_[d] += static_cast<double>(req.size);
}

void HibernatorPolicy::on_epoch(ArrayContext& ctx, Seconds now) {
  (void)now;
  const double mean_rt = rt_count_ > 0
                             ? rt_sum_ / static_cast<double>(rt_count_)
                             : 0.0;
  const double total_bytes = std::accumulate(
      disk_busy_estimate_.begin(), disk_busy_estimate_.end(), 0.0);

  const bool sla_ok = mean_rt <= config_.response_target.value();
  if (!sla_ok) ++sla_violations_;

  const double fair_share =
      total_bytes / static_cast<double>(ctx.disk_count());
  for (DiskId d = 0; d < ctx.disk_count(); ++d) {
    DiskSpeed target = DiskSpeed::kHigh;
    if (sla_ok && total_bytes > 0.0 &&
        disk_busy_estimate_[d] <
            config_.park_load_fraction * fair_share) {
      target = DiskSpeed::kLow;
    }
    if (ctx.disk(d).speed() != target) {
      ctx.request_transition(d, target);
    }
  }

  std::fill(disk_busy_estimate_.begin(), disk_busy_estimate_.end(), 0.0);
  rt_sum_ = 0.0;
  rt_count_ = 0;
}

}  // namespace pr
