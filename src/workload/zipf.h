// zipf.h — Zipf(α) rank sampling. The paper (§4, citing [6][11][20])
// models web request popularity as Zipf-like: P(rank i) ∝ 1/i^α with
// α ∈ [0, 1]. We provide an exact inverse-CDF sampler and the closed-form
// distribution helpers policies/tests need.
//
// Sampling uses a guide table (Chen & Asau, "On generating random
// variates from an empirical distribution", AIIE Trans. 1974). The unit
// interval is cut into B = bit_ceil(n) equal buckets, and guide_[j] holds
// the first rank whose CDF reaches the bucket's left edge j/B. A draw u
// jumps to guide_[floor(u·B)] and steps forward to the first rank with
// cdf ≥ u. With B ≥ n a bucket holds at most one CDF entry on average, so
// one step almost always lands on the answer; a bucket crowded with
// heavy-tail ranks is finished by a binary search inside the bucket. A
// sample is O(1) on average and O(log n) at worst.
//
// The result is exactly std::lower_bound(cdf, u), so the request stream is
// the one a binary search over the whole CDF produces. B is a power of
// two, so u·B only shifts the exponent and its floor is exact. Every rank
// below guide_[j] has cdf < j/B ≤ u, so lower_bound(u) ≥ guide_[j]. The
// CDF of guide_[j+1] reaches (j+1)/B > u, so lower_bound(u) ≤ guide_[j+1];
// guide_[B] = n - 1, whose CDF is exactly 1.0 > u. The search never leaves
// [guide_[j], guide_[j+1]].
//
// The table costs 4·(B + 1) bytes (16 KiB for the paper's 4,079 files)
// next to the 8·n-byte CDF, and is built in one forward merge walk,
// O(n + B).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/contracts.h"
#include "util/rng.h"

namespace pr {

class ZipfDistribution {
 public:
  /// 1 ≤ n ≤ UINT32_MAX ranks, finite exponent alpha ≥ 0 (0 = uniform).
  /// Throws std::invalid_argument otherwise.
  ZipfDistribution(std::size_t n, double alpha);

  /// Sample a rank in [0, n), rank 0 most popular. One RNG draw.
  [[nodiscard]] std::size_t sample(Rng& rng) const {
    return rank_at(rng.uniform());
  }

  /// The rank an inverse-CDF draw u ∈ [0, 1) maps to: the first rank i
  /// with P(rank <= i) >= u. Inline: it is the per-request hot path.
  [[nodiscard]] std::size_t rank_at(double u) const {
    PR_PRECONDITION(u >= 0.0 && u < 1.0,
                    "ZipfDistribution::rank_at: u outside [0, 1)");
    // u·B < 2^32 fits int64_t, whose conversion is one instruction.
    const auto j =
        static_cast<std::size_t>(static_cast<std::int64_t>(u * buckets_));
    std::size_t i = guide_[j];
    // The first step is branchless: most buckets hold at most one CDF
    // entry, so a data-dependent branch here would mispredict often.
    i += static_cast<std::size_t>(cdf_[i] < u);
    if (cdf_[i] < u) {
      // A bucket crowded with tail ranks; the answer is in
      // (i, guide_[j + 1]].
      i = static_cast<std::size_t>(
          std::lower_bound(cdf_.begin() + static_cast<std::ptrdiff_t>(i + 1),
                           cdf_.begin() + guide_[j + 1], u) -
          cdf_.begin());
    }
    return i;
  }

  /// Probability of rank i (0-based).
  [[nodiscard]] double pmf(std::size_t i) const;

  /// Fraction of probability mass on ranks [0, k).
  [[nodiscard]] double cumulative(std::size_t k) const;

  [[nodiscard]] std::size_t size() const { return cdf_.size(); }
  [[nodiscard]] double alpha() const { return alpha_; }

  /// Generalised harmonic number H_{n,alpha} = Σ_{i=1..n} i^-alpha.
  [[nodiscard]] static double harmonic(std::size_t n, double alpha);

 private:
  double alpha_;
  double norm_;  // H_{n,alpha}
  std::vector<double> cdf_;  // cdf_[i] = P(rank <= i)
  // guide_[j] = first rank with cdf_ >= j / B; guide_[B] = n - 1.
  std::vector<std::uint32_t> guide_;
  double buckets_;  // B, a power of two
};

}  // namespace pr
