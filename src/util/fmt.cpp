#include "util/fmt.h"

#include <array>
#include <bit>
#include <charconv>
#include <cstring>
#include <stdexcept>
#include <system_error>

#include "util/contracts.h"

namespace pr {

namespace {

#if defined(__SIZEOF_INT128__)
__extension__ typedef unsigned __int128 u128;

constexpr std::array<u128, 39> make_pow10() {
  std::array<u128, 39> p{};
  p[0] = 1;
  for (std::size_t i = 1; i < p.size(); ++i) p[i] = p[i - 1] * 10;
  return p;
}
/// 10^0 .. 10^38 (10^38 < 2^127).
constexpr auto kPow10 = make_pow10();

constexpr std::uint64_t k1e16 = 10'000'000'000'000'000ULL;
constexpr std::uint64_t k1e17 = 100'000'000'000'000'000ULL;

/// "00" "01" ... "99": two digits per table lookup.
constexpr std::array<char, 200> make_digit_pairs() {
  std::array<char, 200> t{};
  for (std::size_t i = 0; i < 100; ++i) {
    t[2 * i] = static_cast<char>('0' + i / 10);
    t[2 * i + 1] = static_cast<char>('0' + i % 10);
  }
  return t;
}
constexpr auto kDigitPairs = make_digit_pairs();

/// The two digits of i < 100.
const char* digit_pair(std::size_t i) { return kDigitPairs.data() + 2 * i; }

/// Exactly 8 digits of n < 10^8, zero-padded, as two independent 4-digit
/// halves.
void write_8_digits(char* p, std::uint32_t n) {
  const std::uint32_t hi = n / 10'000;
  const std::uint32_t lo = n % 10'000;
  std::memcpy(p, digit_pair(hi / 100), 2);
  std::memcpy(p + 2, digit_pair(hi % 100), 2);
  std::memcpy(p + 4, digit_pair(lo / 100), 2);
  std::memcpy(p + 6, digit_pair(lo % 100), 2);
}

/// The 17 digits of q in [10^16, 10^17).
void write_17_digits(char* p, std::uint64_t q) {
  constexpr std::uint64_t k1e8 = 100'000'000;
  p[0] = static_cast<char>('0' + q / k1e16);
  const std::uint64_t rest = q % k1e16;
  write_8_digits(p + 1, static_cast<std::uint32_t>(rest / k1e8));
  write_8_digits(p + 9, static_cast<std::uint32_t>(rest % k1e8));
}

/// The exact path covers |v| in [2^kMinExp2, 2^(kMaxExp2 + 1)). At the
/// bottom, m·10^22 < 2^53·2^73.1 and the divisor 2^71 fit; at the top,
/// m·2^74 < 2^127 and the divisor 10^22 fit.
constexpr int kMinExp2 = -19;
constexpr int kMaxExp2 = 126;

/// round-half-even(m·2^e / 10^k) for the (e, k) pairs the exact range
/// admits. Never needs more than one 128-bit quotient.
std::uint64_t scaled_round(std::uint64_t m, int e, int k) {
  if (k > 0) {
    // |v| >= 10^16 > 2^53 here, so e >= 1 and the divisor is 10^k alone.
    PR_ASSERT(e >= 1 && k <= 38, "append_double: k > 0 outside range");
    const u128 num = u128{m} << e;
    const u128 den = kPow10[static_cast<std::size_t>(k)];
    const u128 q = num / den;
    const u128 twice_r = (num - q * den) << 1;
    const bool up = twice_r > den || (twice_r == den && (q & 1) != 0);
    return static_cast<std::uint64_t>(q) + (up ? 1 : 0);
  }
  const u128 num = u128{m} * kPow10[static_cast<std::size_t>(-k)];
  if (e >= 0) return static_cast<std::uint64_t>(num << e);
  // The divisor is 2^-e: quotient and remainder are a shift and a mask.
  const int s = -e;
  const u128 q = num >> s;
  const u128 r = num & ((u128{1} << s) - 1);
  const u128 half = u128{1} << (s - 1);
  const bool up = r > half || (r == half && (q & 1) != 0);
  return static_cast<std::uint64_t>(q) + (up ? 1 : 0);
}

/// Exact `%.17g` for a normal double inside the exact range; false (and
/// nothing appended) outside it.
bool append_double17_exact(std::string& out, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const int biased = static_cast<int>((bits >> 52) & 0x7FF);
  const int exp2 = biased - 1023;
  // Subnormals and zero (biased 0) and inf/NaN (biased 2047) fall out here.
  if (biased == 0 || exp2 < kMinExp2 || exp2 > kMaxExp2) return false;
  const std::uint64_t m = (bits & ((std::uint64_t{1} << 52) - 1)) |
                          (std::uint64_t{1} << 52);
  const int e = exp2 - 52;

  // x starts at or below X = floor(log10 |v|): |v| >= 2^exp2, and the
  // multiplier under-reads log10(2) for exp2 >= 0 and over-reads it for
  // exp2 < 0. While x < X the 17-digit quotient overflows 10^17.
  int x = (exp2 * (exp2 < 0 ? 78914 : 78913)) >> 18;
  std::uint64_t q = scaled_round(m, e, x - 16);
  while (q > k1e17) {
    ++x;
    q = scaled_round(m, e, x - 16);
  }
  // Either rounding carried into an 18th digit, or x was one low and the
  // value sits within half a unit above 10^17; both print as 1·10^(x+1).
  if (q == k1e17) {
    q = k1e16;
    ++x;
  }
  PR_ASSERT(q >= k1e16, "append_double: decimal exponent overestimated");

  // The 17 digits, then slack: the layout below always copies 16 or 17
  // bytes at a time and advances by the significant count only.
  char digits[40] = {};
  write_17_digits(digits, q);
  int n = 17;
  while (digits[n - 1] == '0') --n;

  // Longest text: "-0.0000" + 17 digits = 24 bytes; the fixed-size copies
  // reach at most 1 + 17 + 1 + 16 = 35.
  char buf[48];
  char* p = buf;
  if ((bits >> 63) != 0) *p++ = '-';
  if (x < -4 || x >= 17) {
    p[0] = digits[0];
    p[1] = '.';
    std::memcpy(p + 2, digits + 1, 16);
    p += n > 1 ? n + 1 : 1;
    const int ax = x < 0 ? -x : x;  // at most 38
    *p++ = 'e';
    *p++ = x < 0 ? '-' : '+';
    std::memcpy(p, digit_pair(static_cast<std::size_t>(ax)), 2);
    p += 2;
  } else if (x >= 0) {
    // Integer part, then the fraction if any digit is left over; an
    // integer-valued v keeps its stripped zeros from `digits`.
    const int int_digits = x + 1;
    std::memcpy(p, digits, 17);
    if (n <= int_digits) {
      p += int_digits;
    } else {
      p[int_digits] = '.';
      std::memcpy(p + int_digits + 1, digits + int_digits, 16);
      p += n + 1;
    }
  } else {
    const int zeros = -x - 1;  // 0..3
    std::memcpy(p, "0.000", 5);
    p += 2 + zeros;
    std::memcpy(p, digits, 17);
    p += n;
  }
  out.append(buf, p);
  return true;
}

#endif  // __SIZEOF_INT128__

}  // namespace

void append_double(std::string& out, double v, int precision) {
  PR_PRECONDITION(precision > 0, "format_double: precision must be positive");
#if defined(__SIZEOF_INT128__)
  if (precision == 17 && append_double17_exact(out, v)) return;
#endif
  // 17 significant digits + sign + decimal point + "e+308" exponent fits
  // comfortably; 64 leaves slack for any sane precision.
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v,
                                 std::chars_format::general, precision);
  PR_ASSERT(res.ec == std::errc{}, "format_double: to_chars overflow");
  out.append(buf, res.ptr);
}

std::string format_double(double v, int precision) {
  std::string out;
  append_double(out, v, precision);
  return out;
}

void append_uint(std::string& out, std::uint64_t v) {
  char buf[20];  // 18446744073709551615
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

void append_int(std::string& out, std::int64_t v) {
  char buf[20];  // -9223372036854775808
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

double parse_double(std::string_view text) {
  double v = 0.0;
  const auto res = std::from_chars(text.data(), text.data() + text.size(), v);
  if (res.ec != std::errc{} || res.ptr != text.data() + text.size()) {
    throw std::invalid_argument("parse_double: bad float '" +
                                std::string(text) + "'");
  }
  return v;
}

}  // namespace pr
