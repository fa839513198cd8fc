#include "control/zipf_estimator.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "trace/trace_stats.h"

namespace pr {

ZipfEstimator::ZipfEstimator(double files_fraction, std::size_t fit_ranks)
    : files_fraction_(files_fraction), fit_ranks_(fit_ranks) {
  if (!(files_fraction > 0.0) || !(files_fraction < 1.0)) {
    throw std::invalid_argument(
        "ZipfEstimator: files_fraction must be in (0, 1)");
  }
}

ZipfEstimate ZipfEstimator::estimate(
    std::span<const std::uint64_t> counts) const {
  ZipfEstimate out;
  out.theta = estimate_theta(counts, files_fraction_);

  rank_scratch_.clear();
  for (const std::uint64_t c : counts) {
    if (c > 0) rank_scratch_.push_back(c);
  }
  out.active_files = rank_scratch_.size();

  // α is compute_trace_stats' fit over the top `fit_ranks_` active
  // counts. Selection by value only — the multiset determines the ranked
  // prefix regardless of file-id order, so the estimate is stable under
  // any counts layout.
  std::size_t n = rank_scratch_.size();
  if (fit_ranks_ > 0) n = std::min(n, fit_ranks_);
  std::partial_sort(rank_scratch_.begin(), rank_scratch_.begin() + n,
                    rank_scratch_.end(), std::greater<>());
  out.alpha = fit_zipf_alpha(std::span(rank_scratch_).first(n));
  return out;
}

}  // namespace pr
