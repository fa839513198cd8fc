#include "workload/zipf.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace pr {

double ZipfDistribution::harmonic(std::size_t n, double alpha) {
  double h = 0.0;
  for (std::size_t i = 1; i <= n; ++i) {
    h += std::pow(static_cast<double>(i), -alpha);
  }
  return h;
}

ZipfDistribution::ZipfDistribution(std::size_t n, double alpha)
    : alpha_(alpha) {
  if (n == 0) throw std::invalid_argument("ZipfDistribution: n == 0");
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("ZipfDistribution: n > UINT32_MAX");
  }
  if (!(std::isfinite(alpha) && alpha >= 0.0)) {
    throw std::invalid_argument(
        "ZipfDistribution: alpha must be finite and >= 0");
  }
  cdf_.resize(n);
  double cum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    cum += std::pow(static_cast<double>(i + 1), -alpha);
    cdf_[i] = cum;
  }
  norm_ = cum;
  for (auto& c : cdf_) c /= norm_;
  cdf_.back() = 1.0;  // guard against fp residue

  // One merge walk over bucket edges and CDF entries. The edges j / B are
  // exact and below 1.0 == cdf_.back(), so the walk stays in range.
  const std::size_t buckets = std::bit_ceil(n);
  buckets_ = static_cast<double>(buckets);
  guide_.resize(buckets + 1);
  std::size_t i = 0;
  for (std::size_t j = 0; j < buckets; ++j) {
    const double edge = static_cast<double>(j) / buckets_;
    while (cdf_[i] < edge) ++i;
    guide_[j] = static_cast<std::uint32_t>(i);
  }
  guide_[buckets] = static_cast<std::uint32_t>(n - 1);
}

double ZipfDistribution::pmf(std::size_t i) const {
  if (i >= cdf_.size()) return 0.0;
  return std::pow(static_cast<double>(i + 1), -alpha_) / norm_;
}

double ZipfDistribution::cumulative(std::size_t k) const {
  if (k == 0) return 0.0;
  if (k >= cdf_.size()) return 1.0;
  return cdf_[k - 1];
}

}  // namespace pr
