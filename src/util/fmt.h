// fmt.h — locale-independent numeric text, appended to a std::string.
//
// Every byte-deterministic emitter (CSV, JSONL, report JSON) must produce
// the same output no matter what std::locale::global(...) an embedding
// application installed. iostream `<<` consults the stream's imbued
// locale (a German global locale turns 0.5 into "0,5" and 1234 into
// "1.234", corrupting every CSV), so output paths route through these
// helpers instead.
//
// Doubles: the text is printf("%.{precision}g") in the "C" locale, which
// is what std::to_chars(v, chars_format::general, precision) is specified
// to produce. append_double calls to_chars, except for precision 17 (the
// round-trip precision every emitter uses) on a normal double with
// 2^-19 <= |v| < 2^127 (about 1.9e-6 to 1.7e38). There it rounds by hand:
// with v = m·2^e and X = floor(log10 |v|), the 17 digits are
// q = round-half-even(m·2^e / 10^(X-16)), an integer quotient whose
// numerator and denominator both fit in unsigned __int128 over that range.
// Quotient plus remainder is exact arithmetic, not an approximation, so q
// is the correctly rounded decimal that printf and to_chars produce; the
// %g layout (trailing zeros stripped, scientific iff X < -4 or X >= 17,
// exponent of at least two digits) is then written out directly. Zero,
// subnormals, infinities, NaN, magnitudes outside the range, other
// precisions and compilers without __int128 take the to_chars call. The
// equality is checked value by value against to_chars in tests/test_fmt.cpp.
//
// Integers: append_uint/append_int go through std::to_chars, which never
// consults a locale (no grouping separators).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace pr {

/// `%.{precision}g`-style text for `v` in the C locale. precision 17
/// round-trips every finite double; 6 matches the default ostream
/// formatting the figure benches historically emitted.
[[nodiscard]] std::string format_double(double v, int precision = 17);

/// Append form of format_double for string-building emitters.
void append_double(std::string& out, double v, int precision = 17);

/// Decimal text of an integer, no grouping, appended to `out`.
void append_uint(std::string& out, std::uint64_t v);
void append_int(std::string& out, std::int64_t v);

/// Locale-independent counterpart of std::stod (which honours the global C
/// locale's decimal point). The whole of `text` must parse; throws
/// std::invalid_argument otherwise.
[[nodiscard]] double parse_double(std::string_view text);

}  // namespace pr
