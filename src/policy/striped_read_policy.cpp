#include "policy/striped_read_policy.h"

#include <stdexcept>

namespace pr {

StripedReadPolicy::StripedReadPolicy(StripedReadConfig config)
    : config_(config), base_(config.read) {
  if (config_.stripe_unit == 0) {
    throw std::invalid_argument("StripedReadPolicy: zero stripe unit");
  }
}

void StripedReadPolicy::initialize(ArrayContext& ctx) {
  base_.initialize(ctx);
  striped_file_.assign(ctx.files().size(), 0);
  for (FileId f = 0; f < ctx.files().size(); ++f) {
    if (ctx.files().by_id(f).size > config_.stripe_unit) {
      striped_file_[f] = 1;
      ++striped_count_;
    }
  }
}

std::vector<StripeChunk> StripedReadPolicy::stripe(ArrayContext& ctx,
                                                   const Request& req) {
  if (!striped_file_[req.file]) {
    // Small file: plain READ service on its placed disk.
    return {StripeChunk{base_.route(ctx, req), req.size}};
  }
  // Large file: units round-robin over the hot zone, starting at a
  // deterministic per-file offset so concurrent large transfers spread.
  const auto hot = static_cast<std::size_t>(base_.zoning().hot_disks);
  const auto start = static_cast<DiskId>(req.file % hot);
  return StripedStaticPolicy::chunks_for(req.size, config_.stripe_unit,
                                         start, hot);
}

void StripedReadPolicy::on_epoch(ArrayContext& ctx, Seconds now) {
  base_.on_epoch(ctx, now);
  // Pin striped files' nominal placement inside the hot zone: their data
  // lives across the hot disks, so a base-READ migration of the nominal
  // home to the cold zone would misrepresent where the I/O lands. Move
  // any such file's home back (bookkeeping only when already hot).
  for (FileId f = 0; f < striped_file_.size(); ++f) {
    if (!striped_file_[f]) continue;
    if (!base_.is_hot_disk(ctx.location(f))) {
      ctx.migrate(f, static_cast<DiskId>(f % base_.zoning().hot_disks));
    }
  }
}

bool StripedReadPolicy::allow_spin_down(ArrayContext& ctx, DiskId d,
                                        Seconds now) {
  return base_.allow_spin_down(ctx, d, now);
}

}  // namespace pr
