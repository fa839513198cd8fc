#include "trace/trace_stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

namespace pr {

double theta_from_skew(double accesses_fraction, double files_fraction) {
  if (!(accesses_fraction > 0.0) || accesses_fraction >= 1.0 ||
      !(files_fraction > 0.0) || files_fraction >= 1.0) {
    return 1.0;
  }
  const double theta = std::log(accesses_fraction) / std::log(files_fraction);
  return std::clamp(theta, 1e-6, 1.0);
}

double accesses_captured(double files_fraction, double theta) {
  files_fraction = std::clamp(files_fraction, 0.0, 1.0);
  if (files_fraction == 0.0) return 0.0;
  return std::pow(files_fraction, theta);
}

double estimate_theta(std::span<const std::uint64_t> counts,
                      double files_fraction) {
  const std::uint64_t total =
      std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
  // Count only files that were actually accessed: the universe of files a
  // policy distributes is the referenced set.
  std::vector<std::uint64_t> active;
  active.reserve(counts.size());
  for (auto c : counts) {
    if (c > 0) active.push_back(c);
  }
  if (total == 0 || active.size() < 2) return 1.0;

  auto top_n = static_cast<std::size_t>(
      std::ceil(files_fraction * static_cast<double>(active.size())));
  top_n = std::clamp<std::size_t>(top_n, 1, active.size() - 1);

  // Only the sum of the top_n largest counts matters, and that sum is
  // invariant under how nth_element arranges ties — O(n) selection
  // replaces the former full descending sort.
  std::nth_element(active.begin(), active.begin() + top_n, active.end(),
                   std::greater<>());
  const std::uint64_t top_accesses = std::accumulate(
      active.begin(), active.begin() + top_n, std::uint64_t{0});

  const double a =
      static_cast<double>(top_accesses) / static_cast<double>(total);
  const double b =
      static_cast<double>(top_n) / static_cast<double>(active.size());
  return theta_from_skew(a, b);
}

double estimate_theta(const std::vector<std::uint64_t>& counts,
                      double files_fraction) {
  return estimate_theta(std::span<const std::uint64_t>(counts),
                        files_fraction);
}

double fit_zipf_alpha(std::span<const std::uint64_t> ranked) {
  if (ranked.size() < 3) return 0.0;
  double sx = 0.0;
  double sy = 0.0;
  double sxx = 0.0;
  double sxy = 0.0;
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    const double x = std::log(static_cast<double>(i + 1));
    const double y = std::log(static_cast<double>(ranked[i]));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const auto dn = static_cast<double>(ranked.size());
  const double denom = dn * sxx - sx * sx;
  return denom > 0.0 ? -(dn * sxy - sx * sy) / denom : 0.0;
}

void TraceStatsAccumulator::add(const Request& r) {
  ++request_count_;
  total_bytes_ += r.size;
  if (r.file != kInvalidFile) {
    if (r.file >= access_counts_.size()) {
      access_counts_.resize(r.file + std::size_t{1}, 0);
      mean_file_bytes_.resize(r.file + std::size_t{1}, 0.0);
    }
    ++access_counts_[r.file];
    // incremental mean per file
    const auto n = static_cast<double>(access_counts_[r.file]);
    mean_file_bytes_[r.file] +=
        (static_cast<double>(r.size) - mean_file_bytes_[r.file]) / n;
  }
  if (!have_first_) {
    first_ = r.arrival;
    have_first_ = true;
  }
  last_ = r.arrival;
}

TraceStats TraceStatsAccumulator::finalize() const {
  TraceStats stats;
  stats.theta_b = options_.theta_b;
  stats.request_count = request_count_;
  if (request_count_ == 0) return stats;

  stats.total_bytes = total_bytes_;
  stats.access_counts = access_counts_;
  stats.mean_file_bytes = mean_file_bytes_;
  stats.file_count = static_cast<std::size_t>(std::count_if(
      stats.access_counts.begin(), stats.access_counts.end(),
      [](std::uint64_t c) { return c > 0; }));

  stats.duration =
      request_count_ > 1 ? Seconds{last_ - first_} : Seconds{0};
  stats.mean_interarrival =
      request_count_ > 1
          ? Seconds{stats.duration.value() /
                    static_cast<double>(request_count_ - 1)}
          : Seconds{0};
  stats.mean_request_bytes = static_cast<double>(stats.total_bytes) /
                             static_cast<double>(request_count_);

  stats.theta = estimate_theta(stats.access_counts, options_.theta_b);

  // The active files' counts, most accessed first, feed both the share
  // of accesses going to the top θ_b fraction and the Zipf fit.
  std::vector<std::uint64_t> active;
  active.reserve(stats.file_count);
  for (auto c : stats.access_counts) {
    if (c > 0) active.push_back(c);
  }
  std::sort(active.begin(), active.end(), std::greater<>());
  if (!active.empty()) {
    auto top_n = static_cast<std::size_t>(std::ceil(
        options_.theta_b * static_cast<double>(active.size())));
    top_n = std::clamp<std::size_t>(top_n, 1, active.size());
    std::uint64_t top = 0;
    for (std::size_t i = 0; i < top_n; ++i) top += active[i];
    stats.top_fraction_accesses =
        static_cast<double>(top) / static_cast<double>(request_count_);
  }
  std::size_t n = active.size();
  if (options_.zipf_fit_ranks > 0) n = std::min(n, options_.zipf_fit_ranks);
  stats.zipf_alpha = fit_zipf_alpha(std::span(active).first(n));

  return stats;
}

TraceStats compute_trace_stats(const Trace& trace,
                               const TraceStatsOptions& options) {
  TraceStatsAccumulator acc(options);
  for (const auto& r : trace.requests) acc.add(r);
  return acc.finalize();
}

}  // namespace pr
