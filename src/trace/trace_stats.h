// trace_stats.h — workload characterisation. READ (§4) parameterises itself
// from workload statistics: the Zipf-like skew parameter θ (Lee et al. [20]:
// the fraction of accesses captured by the top x fraction of files is x^θ,
// θ = log(A/100)/log(B/100) when A% of accesses go to B% of files), file
// popularity ranking, and per-file loads. This module computes all of that
// from any Trace, so the same code path serves real WC98 input and the
// synthetic generator.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "trace/request.h"

namespace pr {

struct TraceStats {
  std::size_t request_count = 0;
  std::size_t file_count = 0;  // distinct files referenced
  Seconds duration{0};
  Seconds mean_interarrival{0};
  double mean_request_bytes = 0.0;
  Bytes total_bytes = 0;

  /// access_count[f] for every file id in [0, file_universe).
  std::vector<std::uint64_t> access_counts;
  /// Mean transfer size observed per file (0 for never-accessed ids).
  std::vector<double> mean_file_bytes;

  /// Skew parameter θ estimated at the configured B (top-fraction) point.
  double theta = 1.0;
  /// Fraction of accesses captured by the top `theta_b` fraction of files.
  double top_fraction_accesses = 0.0;
  /// The B used for the θ estimate (fraction of files, e.g. 0.2).
  double theta_b = 0.2;

  /// Zipf exponent fitted by least squares on log(rank) vs log(count)
  /// (0 when the trace has too few distinct counts to fit).
  double zipf_alpha = 0.0;
};

struct TraceStatsOptions {
  /// Top-fraction of files at which θ is measured (Lee et al. use the
  /// A%/B% formulation; B = 20% reproduces the classic 80/20 reading).
  double theta_b = 0.2;
  /// Number of top-ranked files used in the Zipf log-log fit (0 = all).
  std::size_t zipf_fit_ranks = 0;
};

/// Single-pass (plus sort over distinct files) trace characterisation.
[[nodiscard]] TraceStats compute_trace_stats(const Trace& trace,
                                             const TraceStatsOptions& options = {});

/// Incremental form of compute_trace_stats for streaming ingestion: feed
/// requests in arrival order with add(), then finalize(). Feeding every
/// request of a trace reproduces compute_trace_stats exactly (same
/// accumulation order, same derived statistics) — compute_trace_stats is
/// implemented on top of this class. Memory is O(file universe), not
/// O(requests), so a stats pass over an unbounded stream stays bounded by
/// the id space.
class TraceStatsAccumulator {
 public:
  explicit TraceStatsAccumulator(TraceStatsOptions options = {})
      : options_(options) {}

  /// Record one request (arrival order required for the duration fields).
  void add(const Request& r);

  /// Requests recorded so far.
  [[nodiscard]] std::size_t request_count() const { return request_count_; }
  /// Arrival of the most recent request (0 before the first add). The
  /// scenario engine uses this as the fault-plan horizon.
  [[nodiscard]] Seconds last_arrival() const { return last_; }
  /// Live per-file access counts (grows with the observed id space).
  [[nodiscard]] const std::vector<std::uint64_t>& access_counts() const {
    return access_counts_;
  }
  /// Live per-file mean transfer sizes (same indexing as access_counts()).
  [[nodiscard]] const std::vector<double>& mean_file_bytes() const {
    return mean_file_bytes_;
  }

  /// Derive the full TraceStats from everything added so far.
  [[nodiscard]] TraceStats finalize() const;

 private:
  TraceStatsOptions options_;
  std::size_t request_count_ = 0;
  Bytes total_bytes_ = 0;
  std::vector<std::uint64_t> access_counts_;
  std::vector<double> mean_file_bytes_;
  Seconds first_{0};
  Seconds last_{0};
  bool have_first_ = false;
};

/// θ from an A/B skew statement: A fraction of accesses to B fraction of
/// files; both in (0, 1). θ = log(A)/log(B). θ ∈ (0, 1] for A ≥ B.
[[nodiscard]] double theta_from_skew(double accesses_fraction,
                                     double files_fraction);

/// Inverse helper: fraction of accesses captured by top `files_fraction`
/// of files under skew θ (the Lee et al. cumulative law x^θ).
[[nodiscard]] double accesses_captured(double files_fraction, double theta);

/// θ estimated from raw access counts (need not be normalised, ordered or
/// zero-free — only the multiset of positive counts matters); returns 1.0
/// (uniform) for degenerate inputs. The span overload lets hot callers
/// (epoch re-ranking) pass a view over live counters without materializing
/// a copy; selection is O(n) via nth_element, not a full sort.
[[nodiscard]] double estimate_theta(std::span<const std::uint64_t> counts,
                                    double files_fraction = 0.2);
[[nodiscard]] double estimate_theta(const std::vector<std::uint64_t>& counts,
                                    double files_fraction = 0.2);

/// Zipf exponent α: minus the least-squares slope of log(count) on
/// log(rank) over `ranked`, positive counts in descending order (rank 1
/// first). 0 for fewer than 3 ranks or a degenerate fit.
[[nodiscard]] double fit_zipf_alpha(std::span<const std::uint64_t> ranked);

}  // namespace pr
