// striped_read_policy.h — READ + RAID striping (paper §6, the second
// future-work direction: "we intend to enable the READ scheme to
// cooperate with the RAID architecture ... For the web server
// environment, files are usually very small, and thus stripping is not
// crucial. However, for large files such as video clips, audio segments,
// and office documents, stripping is needed").
//
// Exactly that split: files at or below the stripe unit follow plain
// READ placement (whole-file, hot/cold zones, epoch migration, capped
// DPM); larger files are striped across the *hot zone* in stripe units —
// they are, by the paper's framing, media objects whose transfer time
// dominates and parallelism pays. Striped files never migrate (their
// home zone is the hot zone by construction) and their chunks are served
// at whatever speed the hot disks are in, respecting READ's budget
// machinery untouched.
#pragma once

#include <vector>

#include "policy/read_policy.h"
#include "policy/striping.h"

namespace pr {

struct StripedReadConfig {
  ReadConfig read{};
  /// Files strictly larger than this are striped (the paper's "normal
  /// stripping block size 512 KB").
  Bytes stripe_unit = 512 * kKiB;
};

class StripedReadPolicy final : public Policy {
 public:
  explicit StripedReadPolicy(StripedReadConfig config = {});

  [[nodiscard]] std::string name() const override { return "READ+RAID0"; }
  [[nodiscard]] bool striped() const override { return true; }

  void initialize(ArrayContext& ctx) override;
  std::vector<StripeChunk> stripe(ArrayContext& ctx,
                                  const Request& req) override;
  void on_epoch(ArrayContext& ctx, Seconds now) override;
  bool allow_spin_down(ArrayContext& ctx, DiskId d, Seconds now) override;

  [[nodiscard]] bool is_striped_file(FileId f) const {
    return striped_file_.at(f) != 0;
  }
  [[nodiscard]] std::size_t striped_file_count() const {
    return striped_count_;
  }

 private:
  StripedReadConfig config_;
  ReadPolicy base_;
  std::vector<char> striped_file_;
  std::size_t striped_count_ = 0;
};

}  // namespace pr
