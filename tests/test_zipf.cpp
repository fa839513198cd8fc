// Tests for workload/zipf.h, including parameterized sweeps over α — the
// paper assumes Zipf-like request popularity with α ∈ [0, 1] (§4).
#include "workload/zipf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "util/contracts.h"

namespace pr {
namespace {

TEST(Zipf, RejectsBadArguments) {
  EXPECT_THROW(ZipfDistribution(0, 0.8), std::invalid_argument);
  EXPECT_THROW(ZipfDistribution(10, -0.1), std::invalid_argument);
  // Ranks are stored as uint32_t, like FileId; rejected before allocating.
  const std::size_t too_many =
      std::size_t{std::numeric_limits<std::uint32_t>::max()} + 1;
  EXPECT_THROW(ZipfDistribution(too_many, 0.8), std::invalid_argument);
}

TEST(Zipf, RejectsNanAlpha) {
  // A NaN passes `alpha < 0`; it must not build an all-NaN CDF that sends
  // every sample to rank 0.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(ZipfDistribution(10, kNan), std::invalid_argument);
  EXPECT_THROW(ZipfDistribution(10, kInf), std::invalid_argument);
}

/// rank_at must equal std::lower_bound over the CDF for every u: the guide
/// table is a speed-up, never a change to the request stream.
TEST(Zipf, RankAtMatchesLowerBound) {
  const std::size_t sizes[] = {1, 2, 3, 37, 4'079, 40'000, 100'000};
  // alpha = 40 drives most of the CDF to exact ties at 1.0.
  const double alphas[] = {0.0, 0.3, 0.8, 1.0, 3.0, 40.0};
  std::size_t checks = 0;
  for (const std::size_t n : sizes) {
    for (const double alpha : alphas) {
      const ZipfDistribution z(n, alpha);
      std::vector<double> cdf(n);
      for (std::size_t k = 1; k <= n; ++k) cdf[k - 1] = z.cumulative(k);
      std::size_t mismatches = 0;
      double first_bad_u = 0.0;
      const auto check = [&](double u) {
        if (!(u >= 0.0 && u < 1.0)) return;
        const auto expected = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        ++checks;
        if (z.rank_at(u) != expected && mismatches++ == 0) first_bad_u = u;
      };
      const auto check_around = [&](double u) {
        check(std::nextafter(u, 0.0));
        check(u);
        check(std::nextafter(u, 2.0));
      };

      Rng rng(n * 31 + static_cast<std::uint64_t>(alpha * 10));
      for (int i = 0; i < 200'000; ++i) check(rng.uniform());
      const std::size_t buckets = std::bit_ceil(n);
      for (std::size_t j = 0; j < buckets; ++j) {
        check_around(static_cast<double>(j) / static_cast<double>(buckets));
      }
      for (const double c : cdf) check_around(c);
      check(0.0);
      check(std::nextafter(1.0, 0.0));
      EXPECT_EQ(mismatches, 0u) << "n=" << n << " alpha=" << alpha
                                << " first mismatch at u=" << first_bad_u;
    }
  }
  EXPECT_GT(checks, 8'000'000u);
}

#if PR_CONTRACTS_ENABLED
TEST(ZipfDeath, RankAtRejectsUOutsideUnitInterval) {
  const ZipfDistribution z(37, 0.8);
  EXPECT_DEATH((void)z.rank_at(1.0), "rank_at: u outside \\[0, 1\\)");
  EXPECT_DEATH((void)z.rank_at(std::numeric_limits<double>::quiet_NaN()),
               "rank_at: u outside \\[0, 1\\)");
}
#endif

TEST(Zipf, PmfSumsToOne) {
  ZipfDistribution z(1000, 0.8);
  double sum = 0.0;
  for (std::size_t i = 0; i < z.size(); ++i) sum += z.pmf(i);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, PmfIsDecreasing) {
  ZipfDistribution z(100, 0.9);
  for (std::size_t i = 1; i < z.size(); ++i) {
    EXPECT_LE(z.pmf(i), z.pmf(i - 1));
  }
}

TEST(Zipf, PmfOutOfRangeIsZero) {
  ZipfDistribution z(10, 0.5);
  EXPECT_DOUBLE_EQ(z.pmf(10), 0.0);
  EXPECT_DOUBLE_EQ(z.pmf(9999), 0.0);
}

TEST(Zipf, AlphaZeroIsUniform) {
  ZipfDistribution z(8, 0.0);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(z.pmf(i), 1.0 / 8.0, 1e-12);
  }
}

TEST(Zipf, CumulativeEndpoints) {
  ZipfDistribution z(50, 0.7);
  EXPECT_DOUBLE_EQ(z.cumulative(0), 0.0);
  EXPECT_DOUBLE_EQ(z.cumulative(50), 1.0);
  EXPECT_DOUBLE_EQ(z.cumulative(9999), 1.0);
  EXPECT_NEAR(z.cumulative(1), z.pmf(0), 1e-12);
}

TEST(Zipf, CumulativeMatchesPmfSum) {
  ZipfDistribution z(30, 0.85);
  double running = 0.0;
  for (std::size_t k = 1; k <= 30; ++k) {
    running += z.pmf(k - 1);
    EXPECT_NEAR(z.cumulative(k), running, 1e-9);
  }
}

TEST(Zipf, HarmonicKnownValues) {
  EXPECT_DOUBLE_EQ(ZipfDistribution::harmonic(1, 1.0), 1.0);
  EXPECT_NEAR(ZipfDistribution::harmonic(4, 1.0),
              1.0 + 0.5 + 1.0 / 3.0 + 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(ZipfDistribution::harmonic(5, 0.0), 5.0);
}

TEST(Zipf, SamplesWithinRange) {
  ZipfDistribution z(37, 0.8);
  Rng rng(1);
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_LT(z.sample(rng), 37u);
  }
}

TEST(Zipf, SamplingIsDeterministic) {
  ZipfDistribution z(100, 0.8);
  Rng a(5);
  Rng b(5);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(z.sample(a), z.sample(b));
  }
}

/// Parameterized sweep: empirical frequencies must converge to the pmf for
/// every exponent the paper's workload model admits.
class ZipfSamplingFidelity : public ::testing::TestWithParam<double> {};

TEST_P(ZipfSamplingFidelity, EmpiricalMatchesPmf) {
  const double alpha = GetParam();
  constexpr std::size_t kRanks = 50;
  constexpr int kSamples = 200'000;
  ZipfDistribution z(kRanks, alpha);
  Rng rng(42);
  std::vector<int> counts(kRanks, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[z.sample(rng)];
  // Check the head ranks (rare tail ranks have high relative noise).
  for (std::size_t i = 0; i < 10; ++i) {
    const double expected = z.pmf(i);
    const double observed =
        static_cast<double>(counts[i]) / static_cast<double>(kSamples);
    EXPECT_NEAR(observed, expected, 5e-3)
        << "alpha=" << alpha << " rank=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AlphaSweep, ZipfSamplingFidelity,
                         ::testing::Values(0.0, 0.2, 0.5, 0.8, 1.0));

/// The paper's motivating skew property: with α near 1, a small fraction
/// of ranks captures most of the probability mass.
TEST(Zipf, HeadCapturesMassAtHighAlpha) {
  ZipfDistribution z(4079, 1.0);
  EXPECT_GT(z.cumulative(408), 0.55);  // top 10% of files
  ZipfDistribution uniform(4079, 0.0);
  EXPECT_NEAR(uniform.cumulative(408), 0.1, 0.01);
}

}  // namespace
}  // namespace pr
