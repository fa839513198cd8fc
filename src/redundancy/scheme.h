// scheme.h — the redundancy seam.
//
// A RedundancyScheme answers one question for the simulator: when a
// request's disk is held down by an injected fail-stop fault, how is the
// data still served? Three answers exist, and they cover every protection
// mechanism in the codebase:
//
//   kRedirect    — a whole live copy exists somewhere (a replica set, the
//                  MAID cache). The request moves to that disk. This is
//                  what ReplicatedReadPolicy and MaidPolicy expose through
//                  Policy::redundancy(); the counters and events are
//                  byte-identical to the pre-seam degraded_route path.
//   kReconstruct — no whole copy, but parity does: the scheme names the
//                  surviving stripe-unit disks and the simulator issues a
//                  real read on each of them (costed I/O, spin-ups and
//                  all), completing when the slowest survivor finishes.
//                  RAID-5 and declustered parity live here.
//   kLost        — nothing can serve it (RAID-0, a second failure inside
//                  the parity group). The simulator records the request
//                  as lost exactly as it always has.
//
// Parity schemes additionally drive the RebuildScheduler (rebuild.h): they
// name the source disks for each rebuild step and decide which disk pairs
// constitute data loss when failures overlap.
//
// Resolution order in the simulator: a parity scheme configured via
// SimConfig::redundancy wins; otherwise the policy's own scheme (replica /
// cache copies); otherwise degraded requests are lost. The FaultInjector
// (sim/fault_injector.h) consults the resolved scheme; a parity scheme
// is driven by its ParityEngine, so it must answer kReconstruct or
// kLost, never kRedirect.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "redundancy/redundancy_config.h"
#include "sim/array_sim.h"

namespace pr {

/// How a degraded read is satisfied (see file comment).
enum class DegradedAction : std::uint8_t {
  kLost = 0,
  kRedirect = 1,
  kReconstruct = 2,
};

class RedundancyScheme {
 public:
  virtual ~RedundancyScheme() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// `failed` holds `bytes` of `file` and is out of service. Decide the
  /// degraded action: fill `redirect` for kRedirect (a live disk with a
  /// whole copy), or `reads` for kReconstruct (one costed read per
  /// surviving stripe unit; reconstructing B bytes reads B from each of
  /// the g−1 survivors). `reads` arrives empty. The simulator validates
  /// the answer (live, in range) and books the counters/events itself.
  [[nodiscard]] virtual DegradedAction degraded_read(
      ArrayContext& ctx, FileId file, Bytes bytes, DiskId failed,
      DiskId& redirect, std::vector<StripeChunk>& reads) = 0;

  /// True for parity organizations — enables the rebuild engine and the
  /// data-loss bookkeeping. Copy-based schemes (replicas, MAID) return
  /// false: their repair story is the policy's own copy management.
  [[nodiscard]] virtual bool parity() const { return false; }

  /// Source disks for rebuild step `step` of `failed` (parity schemes
  /// only). Append live disks to `sources`; already-failed members are
  /// simply skipped — the rebuild proceeds on whatever survives.
  virtual void rebuild_sources(const ArrayContext& ctx, DiskId failed,
                               std::uint64_t step,
                               std::vector<DiskId>& sources) const {
    (void)ctx;
    (void)failed;
    (void)step;
    (void)sources;
  }

  /// True when concurrent failures of `a` and `b` lose data under this
  /// layout (same RAID-5 group; any pair for declustered parity, where
  /// some stripe always spans both).
  [[nodiscard]] virtual bool loses_data(DiskId a, DiskId b) const {
    (void)a;
    (void)b;
    return false;
  }
};

/// RAID-5: rotated parity over fixed consecutive groups of `group` disks
/// (disks [k·g, (k+1)·g)). One failure per group is survivable — a
/// degraded read reconstructs from the g−1 surviving group members; a
/// second failure in the same group is data loss.
class Raid5Scheme final : public RedundancyScheme {
 public:
  Raid5Scheme(std::size_t disk_count, std::size_t group);

  [[nodiscard]] std::string name() const override { return "raid5"; }
  [[nodiscard]] DegradedAction degraded_read(
      ArrayContext& ctx, FileId file, Bytes bytes, DiskId failed,
      DiskId& redirect, std::vector<StripeChunk>& reads) override;
  [[nodiscard]] bool parity() const override { return true; }
  void rebuild_sources(const ArrayContext& ctx, DiskId failed,
                       std::uint64_t step,
                       std::vector<DiskId>& sources) const override;
  [[nodiscard]] bool loses_data(DiskId a, DiskId b) const override {
    return a / group_ == b / group_;
  }

  [[nodiscard]] std::size_t group() const { return group_; }

 private:
  std::size_t disks_;
  std::size_t group_;
};

/// Declustered parity: each stripe's g−1 partner units are spread over
/// the whole array (partner j of disk d for stripe salt s is
/// (d + 1 + (s + j) mod (n−1)) mod n — distinct offsets, never d), so
/// degraded reads and rebuild I/O fan out across every surviving disk
/// instead of hammering one group. The price is vulnerability: any two
/// concurrent failures share some stripe, so every overlapping pair is
/// data loss (the classic declustering trade-off — faster rebuild,
/// larger loss exposure).
class DeclusteredScheme final : public RedundancyScheme {
 public:
  DeclusteredScheme(std::size_t disk_count, std::size_t group);

  [[nodiscard]] std::string name() const override { return "declustered"; }
  [[nodiscard]] DegradedAction degraded_read(
      ArrayContext& ctx, FileId file, Bytes bytes, DiskId failed,
      DiskId& redirect, std::vector<StripeChunk>& reads) override;
  [[nodiscard]] bool parity() const override { return true; }
  void rebuild_sources(const ArrayContext& ctx, DiskId failed,
                       std::uint64_t step,
                       std::vector<DiskId>& sources) const override;
  [[nodiscard]] bool loses_data(DiskId a, DiskId b) const override {
    return a != b;
  }

  [[nodiscard]] std::size_t group() const { return group_; }

 private:
  /// Partner j for (disk, salt); see class comment.
  [[nodiscard]] DiskId partner(DiskId d, std::uint64_t salt,
                               std::size_t j) const;

  std::size_t disks_;
  std::size_t group_;
};

/// Throw std::invalid_argument unless `config` is satisfiable on
/// `disk_count` disks: group size in [2, disk_count] (0 = whole array,
/// needs disk_count ≥ 2), RAID-5 groups dividing the array evenly,
/// positive rebuild rate and chunk.
void validate_redundancy(const RedundancyConfig& config,
                         std::size_t disk_count);

/// Validate and build the configured parity scheme; nullptr for kNone.
[[nodiscard]] std::unique_ptr<RedundancyScheme> make_scheme(
    const RedundancyConfig& config, std::size_t disk_count);

}  // namespace pr
