#include "policy/striping.h"

#include <stdexcept>

namespace pr {

StripedStaticPolicy::StripedStaticPolicy(StripingConfig config)
    : config_(config) {
  if (config_.stripe_unit == 0) {
    throw std::invalid_argument("StripedStaticPolicy: zero stripe unit");
  }
}

void StripedStaticPolicy::initialize(ArrayContext& ctx) {
  for (DiskId d = 0; d < ctx.disk_count(); ++d) {
    ctx.set_initial_speed(d, DiskSpeed::kHigh);
    ctx.set_dpm(d, DpmConfig{});
  }
  // "Placement" records the disk of the first stripe unit; the rest of
  // the file wraps round-robin from there.
  ctx.place_round_robin();
}

std::vector<StripeChunk> StripedStaticPolicy::chunks_for(
    Bytes size, Bytes unit, DiskId start, std::size_t disk_count) {
  std::vector<StripeChunk> chunks;
  if (size == 0) {
    chunks.push_back({start, 0});
    return chunks;
  }
  // Units round-robin from `start`; per-disk bytes are the sum of that
  // disk's units — each disk appears at most once in the result.
  const auto full_units = size / unit;
  const Bytes remainder = size % unit;
  const auto n = disk_count;
  chunks.reserve(std::min<std::size_t>(n, full_units + 1));
  for (std::size_t i = 0; i < n; ++i) {
    const auto disk = static_cast<DiskId>((start + i) % n);
    Bytes bytes = (full_units / n) * unit;
    const auto extra_units = full_units % n;
    if (i < extra_units) bytes += unit;
    if (i == extra_units && remainder > 0) bytes += remainder;
    if (bytes > 0) chunks.push_back({disk, bytes});
  }
  if (chunks.empty()) chunks.push_back({start, size});
  return chunks;
}

std::vector<StripeChunk> StripedStaticPolicy::stripe(ArrayContext& ctx,
                                                     const Request& req) {
  return chunks_for(req.size, config_.stripe_unit, ctx.location(req.file),
                    ctx.disk_count());
}

}  // namespace pr
