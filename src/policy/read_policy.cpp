#include "policy/read_policy.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <stdexcept>

#include "trace/trace_stats.h"
#include "util/log.h"

namespace pr {

ReadPolicy::ReadPolicy(ReadConfig config) : config_(config) {
  if (config_.theta < 0.0 || config_.theta > 1.0) {
    throw std::invalid_argument("ReadPolicy: theta outside [0, 1]");
  }
  if (config_.max_transitions_per_day == 0) {
    throw std::invalid_argument("ReadPolicy: S must be >= 1");
  }
  if (!(config_.idleness_threshold > Seconds{0.0})) {
    throw std::invalid_argument("ReadPolicy: H must be > 0");
  }
}

DiskId ReadPolicy::next_hot_disk() {
  const auto d = static_cast<DiskId>(hot_cursor_ % zoning_.hot_disks);
  ++hot_cursor_;
  return d;
}

DiskId ReadPolicy::next_cold_disk() {
  if (zoning_.cold_disks == 0) return next_hot_disk();
  const auto d = static_cast<DiskId>(zoning_.hot_disks +
                                     cold_cursor_ % zoning_.cold_disks);
  ++cold_cursor_;
  return d;
}

void ReadPolicy::initialize(ArrayContext& ctx) {
  const FileSet& files = ctx.files();
  if (files.empty()) throw std::invalid_argument("ReadPolicy: no files");

  // θ: configured, or estimated from the file set's access weights
  // (Fig. 6 takes θ as an input; our estimator mirrors line 11's epoch
  // re-estimation so both paths use the same statistic).
  double theta = config_.theta;
  if (theta == 0.0) {
    std::vector<double> weights;
    weights.reserve(files.size());
    for (const auto& f : files.files()) weights.push_back(f.access_rate);
    theta = estimate_theta_from_weights(weights, config_.theta_b);
  }

  // Fig. 6 step 5: sort by size ascending — the initial popularity proxy.
  const std::vector<FileId> by_size = files.ids_by_size_ascending();

  // Steps 1-3: zoning from Eq. 4/5 with loads in (assumed) popularity
  // order.
  std::vector<double> loads;
  loads.reserve(by_size.size());
  for (FileId f : by_size) loads.push_back(files.by_id(f).load());
  zoning_ = compute_zoning(loads, ctx.disk_count(), theta);

  // Step 4: hot zone high speed, cold zone low speed; DPM per zone.
  for (DiskId d = 0; d < ctx.disk_count(); ++d) {
    const bool hot = is_hot_disk(d);
    ctx.set_initial_speed(d, hot ? DiskSpeed::kHigh : DiskSpeed::kLow);
    DpmConfig dpm;
    if (hot) {
      // Hot disks may rest when idle but must come back up to serve;
      // the veto below enforces the daily budget S.
      dpm.spin_down_when_idle = true;
      dpm.idleness_threshold = config_.idleness_threshold;
      dpm.spin_up_to_serve = true;
    } else {
      // Cold disks stay low and serve at low speed (no transitions).
      dpm.spin_down_when_idle = false;
      dpm.spin_up_to_serve = false;
    }
    ctx.set_dpm(d, dpm);
  }

  // Steps 6-7: round-robin placement, popular -> hot, unpopular -> cold.
  hot_file_.assign(files.size(), 0);
  for (std::size_t rank = 0; rank < by_size.size(); ++rank) {
    const FileId f = by_size[rank];
    const bool popular = rank < zoning_.popular_files;
    hot_file_[f] = popular ? 1 : 0;
    ctx.place(f, popular ? next_hot_disk() : next_cold_disk());
  }
}

ReadPolicy::RebalanceCounts ReadPolicy::rebalance(
    ArrayContext& ctx, const std::vector<std::uint64_t>& counts,
    std::size_t* popular_cut) {
  // Lines 10-11: re-rank by observed accesses, re-estimate θ. θ only
  // needs the counts multiset, so it is fed a view over the raw epoch
  // counters — no sorted copy is materialized.
  const double theta = estimate_theta(
      std::span<const std::uint64_t>(counts), config_.theta_b);
  const std::size_t popular = popular_file_count(counts.size(), theta);

  // Only the popular/unpopular boundary matters, so instead of a full
  // stable_sort over every file: an O(m) nth_element around the cutoff,
  // then a bounded sort of the popular prefix. The tail needs ordering
  // only among files currently in the hot zone (the demotion
  // candidates). The (count desc, FileId asc) comparator reproduces the
  // former stable_sort's total order exactly, so the migration set, the
  // round-robin targets and the observer event order are unchanged.
  const auto by_rank = [&](FileId a, FileId b) {
    if (counts[a] != counts[b]) return counts[a] > counts[b];
    return a < b;
  };
  auto& order = rank_scratch_;
  order.resize(counts.size());
  std::iota(order.begin(), order.end(), FileId{0});
  const std::size_t cut = std::min(popular, order.size());
  if (cut < order.size()) {
    std::nth_element(order.begin(), order.begin() + cut, order.end(),
                     by_rank);
  }
  std::sort(order.begin(), order.begin() + cut, by_rank);
  if (popular_cut != nullptr) *popular_cut = cut;

  // Lines 12-19: migrate files whose category changed. Targets follow
  // the zone round-robin cursors; promotions (rank order over the
  // popular prefix) precede demotions (rank order over the hot tail),
  // exactly as the single full-order sweep did.
  RebalanceCounts moved;
  for (std::size_t rank = 0; rank < cut; ++rank) {
    const FileId f = order[rank];
    if (!hot_file_[f]) {
      ctx.migrate(f, next_hot_disk());
      hot_file_[f] = 1;
      ++epoch_migrations_;
      ++moved.promotions;
    }
  }
  auto& demote = demote_scratch_;
  demote.clear();
  for (std::size_t rank = cut; rank < order.size(); ++rank) {
    if (hot_file_[order[rank]]) demote.push_back(order[rank]);
  }
  std::sort(demote.begin(), demote.end(), by_rank);
  for (const FileId f : demote) {
    ctx.migrate(f, next_cold_disk());
    hot_file_[f] = 0;
    ++epoch_migrations_;
    ++moved.demotions;
  }
  return moved;
}

void ReadPolicy::adapt_thresholds(ArrayContext& ctx, Seconds now) {
  // Lines 20-24: adaptive threshold — half the budget spent => double H.
  if (!config_.adaptive_threshold) return;
  for (DiskId d = 0; d < ctx.disk_count(); ++d) {
    if (!ctx.dpm(d).spin_down_when_idle) continue;
    if (ctx.disk(d).transitions_today(now) * 2 >=
        config_.max_transitions_per_day) {
      const Seconds doubled = ctx.dpm(d).idleness_threshold * 2.0;
      ctx.set_idleness_threshold(d, doubled);
      PR_LOG(kDebug) << "READ: disk " << d << " H doubled to "
                     << doubled.value() << "s";
    }
  }
}

int ReadPolicy::resize_hot_zone(ArrayContext& ctx, std::size_t target) {
  const std::size_t disks = ctx.disk_count();
  const std::size_t cap = disks > 1 ? disks - 1 : 1;
  target = std::clamp<std::size_t>(target, 1, cap);
  const std::size_t cur = zoning_.hot_disks;
  if (target == cur) return 0;
  if (target > cur) {
    for (std::size_t d = cur; d < target; ++d) {
      DpmConfig dpm;
      dpm.spin_down_when_idle = true;
      dpm.idleness_threshold = config_.idleness_threshold;
      dpm.spin_up_to_serve = true;
      ctx.set_dpm(static_cast<DiskId>(d), dpm);
      ctx.request_transition(static_cast<DiskId>(d), DiskSpeed::kHigh);
    }
  } else {
    for (std::size_t d = target; d < cur; ++d) {
      DpmConfig dpm;
      dpm.spin_down_when_idle = false;
      dpm.spin_up_to_serve = false;
      ctx.set_dpm(static_cast<DiskId>(d), dpm);
      ctx.request_transition(static_cast<DiskId>(d), DiskSpeed::kLow);
    }
  }
  zoning_.hot_disks = target;
  zoning_.cold_disks = disks - target;
  // The round-robin cursors keep running — they are taken modulo the new
  // zone widths on the next placement.
  return static_cast<int>(target) - static_cast<int>(cur);
}

void ReadPolicy::on_epoch(ArrayContext& ctx, Seconds now) {
  epoch_migrations_ = 0;
  if (ctx.epoch_requests() > 0) {
    rebalance(ctx, ctx.epoch_access_counts());
  }
  adapt_thresholds(ctx, now);
}

bool ReadPolicy::allow_spin_down(ArrayContext& ctx, DiskId d, Seconds now) {
  // A spin-down commits the disk to a spin-up later; deny when the pair
  // would blow the daily budget S (§5.2's hard cap).
  return ctx.disk(d).transitions_today(now) + 2 <=
         config_.max_transitions_per_day;
}

}  // namespace pr
