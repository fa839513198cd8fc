// Differential property test of util/fmt.h: append_double(v, 17) must
// produce exactly the bytes of std::to_chars(v, general, 17) — the
// printf("%.17g") text every CSV/JSONL golden was hashed from — for every
// double, whether it takes the exact 128-bit path or the to_chars
// fallback. Also checks the integer helpers against std::to_string.
#include "util/fmt.h"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "util/rng.h"

namespace pr {
namespace {

std::string reference(double v, int precision = 17) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v,
                                 std::chars_format::general, precision);
  return std::string(buf, res.ptr);
}

/// Compares one value; records the first few mismatches for the report.
class Differential {
 public:
  void check(double v, int precision = 17) {
    ++checked_;
    got_.clear();
    append_double(got_, v, precision);
    const std::string want = reference(v, precision);
    if (got_ == want) return;
    if (++mismatches_ <= 10) {
      ADD_FAILURE() << "bits=0x" << std::hex << std::bit_cast<std::uint64_t>(v)
                    << std::dec << " precision=" << precision << " got '"
                    << got_ << "' want '" << want << "'";
    }
  }

  /// v, its sign flip, and `ulps` neighbours on each side.
  void check_around(double v, int ulps) {
    double lo = v;
    double hi = v;
    check(v);
    check(-v);
    for (int i = 0; i < ulps; ++i) {
      lo = std::nextafter(lo, -std::numeric_limits<double>::infinity());
      hi = std::nextafter(hi, std::numeric_limits<double>::infinity());
      check(lo);
      check(hi);
      check(-lo);
      check(-hi);
    }
  }

  [[nodiscard]] std::uint64_t checked() const { return checked_; }
  [[nodiscard]] std::uint64_t mismatches() const { return mismatches_; }

 private:
  std::string got_;
  std::uint64_t checked_ = 0;
  std::uint64_t mismatches_ = 0;
};

/// The double nearest 10^k (0 below the subnormal range). strtod rather
/// than parse_double, which rejects underflow.
double power_of_ten(int k) {
  return std::strtod(("1e" + std::to_string(k)).c_str(), nullptr);
}

TEST(Fmt, RandomBitPatternsMatchToChars) {
  Differential diff;
  Rng rng(20080414);
  for (int i = 0; i < 400'000; ++i) {
    diff.check(std::bit_cast<double>(rng()));
  }
  // Uniform bit patterns land in the exact path's exponent window only
  // ~7% of the time; sample that window densely too.
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t exp_bits =
        static_cast<std::uint64_t>(1023 - 24 + rng.uniform_index(156));
    const std::uint64_t bits = (rng() & 0x800FFFFFFFFFFFFFULL) |
                               (exp_bits << 52);
    diff.check(std::bit_cast<double>(bits));
  }
  EXPECT_EQ(diff.mismatches(), 0u) << "of " << diff.checked();
}

TEST(Fmt, NeighboursOfPowersOfTenMatchToChars) {
  Differential diff;
  for (int k = -330; k <= 308; ++k) diff.check_around(power_of_ten(k), 3);
  // The exact path's own range edges, 2^-19 and 2^127.
  diff.check_around(std::ldexp(1.0, -19), 3);
  diff.check_around(std::ldexp(1.0, 127), 3);
  EXPECT_EQ(diff.mismatches(), 0u) << "of " << diff.checked();
}

TEST(Fmt, DyadicTiesRoundHalfEven) {
  // v = a / 2^j with a odd has the exact decimal expansion a·5^j / 10^j.
  // With a·5^j of 18 digits the 17-digit rounding is an exact tie; with
  // 17 digits the value prints without rounding.
  Differential diff;
  Rng rng(17);
  for (int j = 1; j <= 70; ++j) {
    const double five_j = std::pow(5.0, j);
    for (const double digits_lo : {1e16, 1e17}) {
      const double lo = std::ceil(digits_lo / five_j);
      const double hi = std::min(std::floor(digits_lo * 10 / five_j),
                                 std::ldexp(1.0, 53) - 1);
      if (lo > hi) continue;
      const auto base = static_cast<std::uint64_t>(lo);
      const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
      for (int i = 0; i < 200; ++i) {
        const std::uint64_t a = (base + rng.uniform_index(span)) | 1;
        diff.check(std::ldexp(static_cast<double>(a), -j));
        diff.check(-std::ldexp(static_cast<double>(a), -j));
      }
    }
  }
  // Hand-picked ties: 1000000000000000.25 and .75 (18 digits, last 5).
  diff.check(1000000000000000.25);
  diff.check(1000000000000000.75);
  EXPECT_EQ(reference(1000000000000000.25), "1000000000000000.2");
  EXPECT_EQ(reference(1000000000000000.75), "1000000000000000.8");
  EXPECT_GT(diff.checked(), 10'000u);
  EXPECT_EQ(diff.mismatches(), 0u) << "of " << diff.checked();
}

TEST(Fmt, IntegersUpTo2To64MatchToChars) {
  Differential diff;
  for (int i = 0; i <= 100'000; ++i) diff.check(static_cast<double>(i));
  Rng rng(64);
  for (int i = 0; i < 200'000; ++i) {
    const int bits = 1 + static_cast<int>(rng.uniform_index(64));
    const std::uint64_t n = bits == 64 ? rng() : rng() >> (64 - bits);
    diff.check(static_cast<double>(n));
  }
  for (int b = 0; b <= 64; ++b) diff.check_around(std::ldexp(1.0, b), 2);
  EXPECT_EQ(diff.mismatches(), 0u) << "of " << diff.checked();
}

TEST(Fmt, RoundingUpToTheNextPowerOfTenMatchesToChars) {
  // A double within half a 17th-digit unit of 10^k prints as a bare power
  // of ten, so its 17-digit quotient lands on 10^17 and becomes 10^16 with
  // the exponent bumped. Inside the exact range that happens for the exact
  // powers 10^1..10^22 whenever the first exponent guess is one low, and
  // for a few doubles just above an inexact 10^k (1e-4, 1e26, 1e36...).
  Differential diff;
  int exact_powers = 0;
  int inexact_powers = 0;
  for (int k = -6; k <= 38; ++k) {
    // 10^0..10^22 are doubles; elsewhere precision 1 gives the same layout.
    const bool exact = k >= 0 && k <= 22;
    const std::string bare = reference(power_of_ten(k), exact ? 17 : 1);
    double v = power_of_ten(k);
    for (int i = 0; i < 3; ++i) v = std::nextafter(v, 0.0);
    for (int i = 0; i < 7; ++i, v = std::nextafter(v, DBL_MAX)) {
      diff.check(v);
      if (reference(v) != bare) continue;
      ++(exact ? exact_powers : inexact_powers);
    }
  }
  EXPECT_EQ(exact_powers, 23);
  EXPECT_GT(inexact_powers, 0);
  // Layout boundaries: %g switches to scientific below 1e-4 and at 1e17.
  EXPECT_EQ(format_double(1e-4), "0.0001");
  EXPECT_EQ(format_double(1e-5), "1.0000000000000001e-05");
  EXPECT_EQ(format_double(1e16), "10000000000000000");
  EXPECT_EQ(format_double(1e17), "1e+17");
  EXPECT_EQ(format_double(0.5), "0.5");
  EXPECT_EQ(format_double(-1.5), "-1.5");
  EXPECT_EQ(format_double(0.1), "0.10000000000000001");
  EXPECT_EQ(format_double(86400.0), "86400");
  EXPECT_EQ(diff.mismatches(), 0u) << "of " << diff.checked();
}

TEST(Fmt, SpecialValuesTakeTheFallback) {
  Differential diff;
  const double inf = std::numeric_limits<double>::infinity();
  for (const double v :
       {0.0, -0.0, inf, -inf, std::numeric_limits<double>::quiet_NaN(),
        DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN, DBL_TRUE_MIN, -DBL_TRUE_MIN,
        DBL_EPSILON, std::nextafter(DBL_MIN, 0.0)}) {
    diff.check(v);
  }
  Rng rng(5);
  for (int i = 0; i < 10'000; ++i) {  // subnormals
    diff.check(std::bit_cast<double>(rng() & 0x800FFFFFFFFFFFFFULL));
  }
  EXPECT_EQ(format_double(0.0), "0");
  EXPECT_EQ(format_double(-0.0), "-0");
  EXPECT_EQ(format_double(inf), "inf");
  EXPECT_EQ(diff.mismatches(), 0u) << "of " << diff.checked();
}

TEST(Fmt, OtherPrecisionsMatchToChars) {
  Differential diff;
  Rng rng(6);
  std::vector<double> values = {0.1, 2.5, 1e-5, 123456.789, 86400.0, 1e17,
                                1.0 / 3.0};
  for (int i = 0; i < 2'000; ++i) {
    values.push_back(std::ldexp(rng.uniform(1.0, 2.0),
                                static_cast<int>(rng.uniform_index(80)) - 40));
  }
  for (int precision = 1; precision <= 25; ++precision) {
    if (precision == 17) continue;
    for (const double v : values) diff.check(v, precision);
  }
  EXPECT_EQ(format_double(0.1, 6), "0.1");
  EXPECT_EQ(diff.mismatches(), 0u) << "of " << diff.checked();
}

TEST(Fmt, AppendIntegersMatchToString) {
  std::string s;
  const auto uint_text = [&s](std::uint64_t v) {
    s.clear();
    append_uint(s, v);
    return s;
  };
  const auto int_text = [&s](std::int64_t v) {
    s.clear();
    append_int(s, v);
    return s;
  };
  const std::uint64_t umax = std::numeric_limits<std::uint64_t>::max();
  const std::int64_t imin = std::numeric_limits<std::int64_t>::min();
  const std::int64_t imax = std::numeric_limits<std::int64_t>::max();
  for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{9},
                                std::uint64_t{10}, umax, umax - 1}) {
    EXPECT_EQ(uint_text(v), std::to_string(v));
  }
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{-10}, imin, imax}) {
    EXPECT_EQ(int_text(v), std::to_string(v));
  }
  Rng rng(8);
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t u = rng() >> rng.uniform_index(64);
    ASSERT_EQ(uint_text(u), std::to_string(u));
    const auto n = static_cast<std::int64_t>(rng() >> rng.uniform_index(64));
    ASSERT_EQ(int_text(n), std::to_string(n));
  }
  // Appending keeps what was there.
  s = "x=";
  append_uint(s, 42);
  append_int(s, -7);
  EXPECT_EQ(s, "x=42-7");
}

}  // namespace
}  // namespace pr
