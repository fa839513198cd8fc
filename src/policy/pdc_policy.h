// pdc_policy.h — PDC: Popular Data Concentration (Pinheiro & Bianchini,
// ICS'04 — the paper's [23]), in the 2-speed-disk variant the paper
// evaluates.
//
// PDC periodically migrates data so that popularity decreases across the
// array: the most popular files are concentrated on the first disk up to a
// load budget, the next on the second disk, and so on; the tail lands on
// the last disks, which then idle long enough to spin down. All disks use
// idleness-threshold DPM and spin up to serve. There is no reliability
// safeguard of any kind — that is precisely the paper's criticism.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/array_sim.h"

namespace pr {

struct PdcConfig {
  /// Idleness threshold for spin-down. The paper leaves every policy's
  /// threshold unspecified; this default is calibrated on the WC98-like
  /// day so PDC's most-cycled disk lands in the ~100 transitions/day
  /// regime the paper charges PDC with (see EXPERIMENTS.md — the value is
  /// deliberately above the ~30 s energy break-even, yet PDC still wastes
  /// energy through tail-disk cycling, reproducing §5.2's observation).
  Seconds idleness_threshold{60.0};
  /// Per-disk load budget as a fraction of one disk's service capacity
  /// within an epoch: disk i takes popular files until its estimated
  /// utilization reaches this, then filling moves to disk i+1.
  double load_budget = 0.7;
  /// Fraction of the epoch's accesses that defines the "popular data"
  /// PDC concentrates. Only files inside this cumulative head migrate;
  /// the unpopular tail *stays where it is* — PDC's whole point is that
  /// the disks holding only unpopular data idle long enough to power
  /// down (and keep being woken by stray tail accesses, which is exactly
  /// the reliability damage the paper charges PDC with).
  double concentration_fraction = 0.8;
};

class PdcPolicy final : public Policy {
 public:
  explicit PdcPolicy(PdcConfig config = {});

  [[nodiscard]] std::string name() const override { return "PDC"; }

  void initialize(ArrayContext& ctx) override;
  void on_epoch(ArrayContext& ctx, Seconds now) override;

  [[nodiscard]] std::uint64_t epoch_migrations() const {
    return epoch_migrations_;
  }

 private:
  /// Estimated utilization contribution of serving `count` accesses of a
  /// file of `bytes` within one epoch at high speed.
  [[nodiscard]] double load_fraction(const ArrayContext& ctx, Bytes bytes,
                                     double count) const;

  PdcConfig config_;
  std::uint64_t epoch_migrations_ = 0;
  /// Epoch-ranking scratch (active file ids), reused across epochs.
  std::vector<FileId> rank_scratch_;
};

}  // namespace pr
