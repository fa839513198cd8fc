// striping.h — RAID-0 striping extension (paper §6 future work: "we
// intend to enable the READ scheme to cooperate with the RAID
// architecture, where files are usually striped across disks... For the
// web server environment, files are usually very small, and thus striping
// is not crucial. However, for large files such as video clips, audio
// segments, and office documents, striping is needed").
//
// StripedStaticPolicy stripes every file across the whole array in
// fixed-size stripe units (default 512 KB, the paper's figure for "a
// normal striping block size") with all disks at high speed — the
// conventional RAID-0 performance layout the paper's §6 contrasts with.
// Files at or below one stripe unit land on a single disk (round-robin by
// first unit), so on a pure web workload this degenerates to Static —
// exactly the paper's point.
#pragma once

#include "redundancy/scheme.h"
#include "sim/array_sim.h"

namespace pr {

struct StripingConfig {
  /// Stripe unit (paper §4: "a normal stripping block size 512 KB").
  Bytes stripe_unit = 512 * kKiB;
};

class StripedStaticPolicy final : public Policy {
 public:
  explicit StripedStaticPolicy(StripingConfig config = {});

  [[nodiscard]] std::string name() const override { return "RAID0-Static"; }
  [[nodiscard]] bool striped() const override { return true; }

  void initialize(ArrayContext& ctx) override;
  std::vector<StripeChunk> stripe(ArrayContext& ctx,
                                  const Request& req) override;
  /// RAID-0's honest answer on the redundancy seam: nothing protects the
  /// stripes, so a degraded chunk loses the whole request — byte-identical
  /// to the pre-seam behavior, but now stated as a scheme instance rather
  /// than hard-coded in the simulator. Configure SimConfig::redundancy
  /// with a parity kind to protect the stripes instead.
  [[nodiscard]] RedundancyScheme* redundancy() override { return &scheme_; }

  /// Chunk decomposition used by stripe(); exposed for tests. `start`
  /// is the disk holding the file's first stripe unit.
  [[nodiscard]] static std::vector<StripeChunk> chunks_for(
      Bytes size, Bytes unit, DiskId start, std::size_t disk_count);

 private:
  class Raid0Scheme final : public RedundancyScheme {
   public:
    [[nodiscard]] std::string name() const override { return "raid0"; }
    [[nodiscard]] DegradedAction degraded_read(
        ArrayContext& ctx, FileId file, Bytes bytes, DiskId failed,
        DiskId& redirect, std::vector<StripeChunk>& reads) override {
      (void)ctx;
      (void)file;
      (void)bytes;
      (void)failed;
      (void)redirect;
      (void)reads;
      return DegradedAction::kLost;
    }
  };

  StripingConfig config_;
  Raid0Scheme scheme_;
};

}  // namespace pr
