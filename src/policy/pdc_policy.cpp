#include "policy/pdc_policy.h"

#include <algorithm>
#include <stdexcept>

#include "disk/service_model.h"

namespace pr {

PdcPolicy::PdcPolicy(PdcConfig config) : config_(config) {
  if (!(config_.idleness_threshold > Seconds{0.0})) {
    throw std::invalid_argument("PdcPolicy: H must be > 0");
  }
  if (!(config_.load_budget > 0.0) || config_.load_budget > 1.0) {
    throw std::invalid_argument("PdcPolicy: load_budget outside (0, 1]");
  }
  if (!(config_.concentration_fraction > 0.0) ||
      config_.concentration_fraction > 1.0) {
    throw std::invalid_argument(
        "PdcPolicy: concentration_fraction outside (0, 1]");
  }
}

void PdcPolicy::initialize(ArrayContext& ctx) {
  for (DiskId d = 0; d < ctx.disk_count(); ++d) {
    ctx.set_initial_speed(d, DiskSpeed::kHigh);
    DpmConfig dpm;
    dpm.spin_down_when_idle = true;
    dpm.idleness_threshold = config_.idleness_threshold;
    dpm.spin_up_to_serve = true;
    ctx.set_dpm(d, dpm);
  }
  // Initial layout: round-robin in size order (popularity unknown until
  // the first epoch's observations; PDC's own paper starts from a
  // conventional striped/spread layout).
  ctx.place_round_robin();
}

double PdcPolicy::load_fraction(const ArrayContext& ctx, Bytes bytes,
                                double count) const {
  const Seconds per_request =
      service_time(ctx.config().disk_params.high, bytes);
  return count * per_request.value() / ctx.config().epoch.value();
}

void PdcPolicy::on_epoch(ArrayContext& ctx, Seconds now) {
  (void)now;
  epoch_migrations_ = 0;
  if (ctx.epoch_requests() == 0) return;

  // Only the popular head — the ranked prefix covering
  // `concentration_fraction` of this epoch's accesses — ever migrates, so
  // a full sort over every file is wasted work. Gather the active files,
  // grow a selection prefix (nth_element, O(active) per round) until it
  // covers the head target, and sort just that prefix. The (count desc,
  // FileId asc) comparator matches the former stable_sort's total order,
  // so the migration sequence is byte-identical.
  const auto& counts = ctx.epoch_access_counts();
  const auto by_rank = [&](FileId a, FileId b) {
    if (counts[a] != counts[b]) return counts[a] > counts[b];
    return a < b;
  };
  auto& order = rank_scratch_;
  order.clear();
  for (FileId f = 0; f < counts.size(); ++f) {
    if (counts[f] > 0) order.push_back(f);
  }

  const double head_target = config_.concentration_fraction *
                             static_cast<double>(ctx.epoch_requests());
  std::size_t head = std::min<std::size_t>(order.size(), 64);
  for (;;) {
    if (head < order.size()) {
      std::nth_element(order.begin(), order.begin() + head, order.end(),
                       by_rank);
    }
    double selected = 0.0;
    for (std::size_t i = 0; i < head; ++i) {
      selected += static_cast<double>(counts[order[i]]);
    }
    if (selected >= head_target || head == order.size()) break;
    head = std::min(order.size(), head * 2);
  }
  std::sort(order.begin(), order.begin() + head, by_rank);

  // Greedy concentration of the popular head only: fill disk 0 with the
  // most popular files up to the load budget, then disk 1, ... Filling
  // stops once the head covering `concentration_fraction` of this epoch's
  // accesses has been placed; everything beyond it — the unpopular tail
  // and files unreferenced this epoch — stays where it is. (The original
  // PDC migrates *popular* data to a subset of the disks so "the
  // remaining disks can be sent to low-power mode"; the remaining disks
  // still hold, and occasionally serve, the tail.)
  DiskId target = 0;
  double filled = 0.0;
  double covered = 0.0;
  const auto last = static_cast<DiskId>(ctx.disk_count() - 1);
  for (std::size_t i = 0; i < head; ++i) {
    const FileId f = order[i];
    if (covered >= head_target) break;  // popular head fully placed
    covered += static_cast<double>(counts[f]);
    const double contribution = load_fraction(
        ctx, ctx.files().by_id(f).size, static_cast<double>(counts[f]));
    if (filled + contribution > config_.load_budget && target < last) {
      ++target;
      filled = 0.0;
    }
    filled += contribution;
    if (ctx.location(f) != target) {
      ctx.migrate(f, target);
      ++epoch_migrations_;
    }
  }
}

}  // namespace pr
