// golden_hash.h — FNV-1a-64 for the committed-hash goldens.
//
// A golden test serializes a run (JSONL event stream, report JSON, a
// canonical counter dump) and compares the hash against a constant
// committed beside the test. The constants are bit-exact IEEE-754
// artifacts of the x86-64 baseline ISA (no FMA contraction, same code
// path in Debug and Release); other architectures may contract
// differently, so hash comparisons sit behind PR_GOLDEN_HASHES while the
// structural same-run comparisons run everywhere.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#if defined(__x86_64__) || defined(_M_X64)
#define PR_GOLDEN_HASHES 1
#else
#define PR_GOLDEN_HASHES 0
#endif

namespace pr::golden {

inline std::uint64_t fnv1a(std::string_view bytes,
                           std::uint64_t h = 0xCBF29CE484222325ULL) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// `name=value` lines in map order — the canonical counter dump. Names
/// starting with a non-empty `skip_prefix` are left out.
inline std::string dump_counters(
    const std::map<std::string, std::uint64_t>& counters,
    std::string_view skip_prefix = {}) {
  std::string out;
  for (const auto& [name, value] : counters) {
    if (!skip_prefix.empty() && name.starts_with(skip_prefix)) continue;
    out += name;
    out += '=';
    out += std::to_string(value);
    out += '\n';
  }
  return out;
}

}  // namespace pr::golden
