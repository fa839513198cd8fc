// read_policy.h — READ: Reliability and Energy Aware Distribution
// (paper §4, Fig. 6). The paper's core contribution.
//
// Mechanics (Fig. 6, annotated with line numbers):
//   1-3   compute |Fp| (Eq. 4), γ (Eq. 5), and the hot/cold disk split;
//   4     hot zone runs high speed, cold zone low speed;
//   5-7   initial placement: files sorted by size ascending (popularity is
//         assumed inversely correlated with size), popular files round-
//         robin over the hot zone, unpopular over the cold zone;
//   8-19  every epoch P: track per-file accesses, re-rank, re-estimate θ,
//         re-categorise, and migrate files whose category changed;
//   20-24 adaptive idleness threshold: once a disk has spent half of its
//         daily speed-transition budget S, its threshold H doubles so
//         future spin-downs become rarer.
//
// On top of Fig. 6, §5.2 states the hard constraint explicitly — "READ
// constrains each disk's number of speed transitions so that it cannot be
// larger than S, which is set to 40" — which we enforce via the spin-down
// veto (a spin-down is denied when the day's remaining budget cannot also
// cover the spin-up that must follow it).
#pragma once

#include <cstdint>
#include <vector>

#include "policy/zoning.h"
#include "sim/array_sim.h"

namespace pr {

struct ReadConfig {
  /// Skew parameter θ ∈ (0, 1]; 0 means "estimate from the file set's
  /// access rates" (and re-estimated from observed counts each epoch,
  /// Fig. 6 line 11).
  double theta = 0.0;
  /// Daily speed-transition budget S per disk (§5.2: 40).
  std::uint64_t max_transitions_per_day = 40;
  /// Initial idleness threshold H for hot-zone DPM.
  Seconds idleness_threshold{10.0};
  /// Fraction-of-files point at which θ is measured (see trace_stats).
  double theta_b = 0.2;
  /// Fig. 6 lines 20-24: double H once half the daily budget is spent.
  /// Disabling this (ablation ABL2) leaves only the hard veto, so disks
  /// burn their full budget early in the day and then stop saving energy.
  bool adaptive_threshold = true;
};

class ReadPolicy : public Policy {
 public:
  explicit ReadPolicy(ReadConfig config = {});

  [[nodiscard]] std::string name() const override { return "READ"; }

  void initialize(ArrayContext& ctx) override;
  void on_epoch(ArrayContext& ctx, Seconds now) override;
  bool allow_spin_down(ArrayContext& ctx, DiskId d, Seconds now) override;

  /// Introspection for tests/benches.
  [[nodiscard]] const ZoningDecision& zoning() const { return zoning_; }
  [[nodiscard]] bool is_hot_file(FileId f) const { return hot_file_.at(f); }
  [[nodiscard]] bool is_hot_disk(DiskId d) const { return d < zoning_.hot_disks; }
  [[nodiscard]] std::uint64_t epoch_migrations() const {
    return epoch_migrations_;
  }

 protected:
  /// How many files a rebalance pass promoted/demoted (diagnostics for
  /// the online variant's counters).
  struct RebalanceCounts {
    std::uint64_t promotions = 0;
    std::uint64_t demotions = 0;
  };

  /// Fig. 6 lines 10-19 over an arbitrary popularity-count vector: re-rank
  /// (O(m) nth_element around the popular cutoff, (count desc, id asc)
  /// total order), re-estimate θ, migrate category changes — promotions in
  /// rank order, then demotions in rank order. The batch policy feeds it
  /// the epoch counters; the online variant its cumulative decayed counts.
  /// After the call rank_scratch_ holds the full order and the popular
  /// prefix [0, cut) is sorted; returns the migration split.
  RebalanceCounts rebalance(ArrayContext& ctx,
                            const std::vector<std::uint64_t>& counts,
                            std::size_t* popular_cut = nullptr);

  /// Fig. 6 lines 20-24: double a disk's idleness threshold H once half
  /// its daily transition budget is spent. No-op when the adaptive knob is
  /// off.
  void adapt_thresholds(ArrayContext& ctx, Seconds now);

  /// Control actuation: resize the hot zone to `target` disks, clamped to
  /// [1, disk_count - 1] (a zone of every disk would leave no cold zone —
  /// single-disk arrays stay at 1). Disks entering the zone get the hot
  /// DPM profile (spin-down-when-idle at the configured initial H,
  /// spin-up-to-serve) and an immediate spin-up; disks leaving it get the
  /// cold profile and a spin-down. Files are NOT migrated here — the next
  /// rebalance pass re-places categories against the new zone widths.
  /// Returns the signed resize actually applied (0 = no change).
  int resize_hot_zone(ArrayContext& ctx, std::size_t target);

  [[nodiscard]] DiskId next_hot_disk();
  [[nodiscard]] DiskId next_cold_disk();

  ReadConfig config_;
  ZoningDecision zoning_;
  std::vector<char> hot_file_;  // file id -> in hot zone?
  // Round-robin cursors (Fig. 6 step 3's dh/dc).
  std::size_t hot_cursor_ = 0;
  std::size_t cold_cursor_ = 0;
  std::uint64_t epoch_migrations_ = 0;
  // Epoch-ranking scratch, reused across epochs so the per-boundary work
  // allocates nothing in steady state.
  std::vector<FileId> rank_scratch_;
  std::vector<FileId> demote_scratch_;
};

}  // namespace pr
