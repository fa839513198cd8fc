// common.h — shared pieces of the perfbench program: options, the report
// sinks, the result collector and the timing decorators the traced run
// wraps around the simulator's public seams (RequestSource, Policy,
// SimObserver). Everything here lives outside the library: tracing costs
// host time but must never change a simulated byte, which every workload
// checks by comparing report digests of its traced and untraced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "core/system.h"
#include "obs/observer.h"
#include "sim/array_sim.h"
#include "trace/request_source.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for generated inputs (trace CSV, scenario file).
  std::string workdir = ".bench_build/work";
};

/// Host seconds on the monotonic clock.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Removes a generated input file when the run ends.
class InputFile {
 public:
  explicit InputFile(std::string path) : path_(std::move(path)) {}
  ~InputFile();
  InputFile(const InputFile&) = delete;
  InputFile& operator=(const InputFile&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Median and quartiles (Python's statistics.quantiles, n=4, exclusive).
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
[[nodiscard]] Quartiles quartiles(std::vector<double> values);
[[nodiscard]] double median(std::vector<double> values);

/// Note "<name>: median m (q1 a, q3 b) over n samples" on `report`.
class Report;
void note_spread(Report& report, const std::string& name,
                 const std::vector<double>& values);

/// Set-up that takes microseconds is too short to time once: run it
/// `repeats` times back to back, keep the last result in `out` and return
/// the mean host seconds of one set-up.
template <typename T, typename F>
double time_setup(int repeats, T& out, F&& set_up) {
  const double t0 = now_s();
  for (int i = 0; i < repeats; ++i) out = set_up();
  return (now_s() - t0) / repeats;
}

/// Peak resident set size of this process image in MiB.
[[nodiscard]] double peak_rss_mib();

/// An in-memory output sink: counts bytes and newlines and folds the
/// bytes into a 64-bit digest, storing nothing. The put area is a fixed
/// block, so the digest depends only on the byte sequence, never on how
/// the writer chunked it.
class DigestBuf final : public std::streambuf {
 public:
  DigestBuf();
  DigestBuf(const DigestBuf&) = delete;
  DigestBuf& operator=(const DigestBuf&) = delete;

  /// Fold any buffered tail and return the digest of everything written.
  std::uint64_t digest();
  std::uint64_t bytes();
  std::uint64_t lines();

 protected:
  int_type overflow(int_type ch) override;
  int sync() override;

 private:
  void fold(const char* data, std::size_t n);

  std::vector<char> block_;
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
  std::uint64_t bytes_ = 0;
  std::uint64_t lines_ = 0;
};

/// std::ostream over a DigestBuf it owns.
class DigestStream final : public std::ostream {
 public:
  DigestStream() : std::ostream(&buf_) {}
  std::uint64_t digest() {
    flush();
    return buf_.digest();
  }
  std::uint64_t bytes() {
    flush();
    return buf_.bytes();
  }
  std::uint64_t lines() {
    flush();
    return buf_.lines();
  }

 private:
  DigestBuf buf_;
};

/// Digest of a scored report's full JSON serialization.
[[nodiscard]] std::uint64_t report_digest(const pr::SystemReport& report);
/// Digest of an unscored result, scored with the default PRESS model.
[[nodiscard]] std::uint64_t result_digest(const pr::SimResult& result);

/// "<n>/<total> <what>", for check details.
[[nodiscard]] std::string n_of(std::size_t n, std::size_t total,
                               const char* what);

[[nodiscard]] std::uint64_t counter_of(const pr::SimResult& result,
                                       const char* name);

/// Where a run's produced requests went; every one is served, shed by
/// admission control or lost to a fault.
struct Accounting {
  std::uint64_t produced = 0;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t lost = 0;
  [[nodiscard]] bool conserved() const {
    return served + shed + lost == produced;
  }
};
[[nodiscard]] Accounting account(const pr::SimResult& result,
                                 std::uint64_t produced);

/// True when total energy equals the sum of the per-disk ledgers (to
/// floating-point summation-order tolerance).
[[nodiscard]] bool energy_matches_ledgers(const pr::SimResult& result);

/// Collected output of one benchmark run: named checks and metrics.
class Report {
 public:
  void check(const std::string& name, bool ok, const std::string& detail);
  void metric(const std::string& name, double value, const std::string& unit);
  void note(const std::string& line);
  [[nodiscard]] bool all_ok() const { return ok_; }
  /// Whole-workload iterations run; all count as failed when any check
  /// fails.
  void set_attempted(std::uint64_t attempted) { attempted_ = attempted; }
  /// Print checks, notes and metrics, then the final JSON line holding
  /// only the metrics named in `keep` (in that order).
  void print(std::ostream& out, const std::vector<std::string>& keep) const;
  [[nodiscard]] bool has(const std::string& name) const {
    return metrics_.count(name) != 0;
  }
  [[nodiscard]] const std::string& unit(const std::string& name) const {
    return metrics_.at(name).unit;
  }

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  bool ok_ = true;
  std::uint64_t attempted_ = 0;
  std::vector<std::string> lines_;
  std::map<std::string, Metric> metrics_;
};

// ---------------------------------------------------------------------------
// Timing decorators (traced run only)

/// Busy time and call count of one seam.
struct Span {
  double seconds = 0.0;
  std::uint64_t calls = 0;
};

/// RequestSource that forwards to `inner` and times every pull.
class TimedSource final : public pr::RequestSource {
 public:
  explicit TimedSource(pr::RequestSource& inner) : inner_(inner) {}

  [[nodiscard]] std::string describe() const override {
    return inner_.describe();
  }
  [[nodiscard]] bool streaming() const override { return inner_.streaming(); }
  [[nodiscard]] const Span& span() const { return span_; }

 protected:
  bool poll(pr::Request& out) override;
  std::size_t poll_batch(pr::Request* out, std::size_t max) override;

 private:
  pr::RequestSource& inner_;
  Span span_;
};

/// Busy time per Policy hook, summed over however many runs.
struct PolicySpans {
  Span init;
  Span route;  ///< route() and stripe()
  Span after_serve;
  Span epoch;
  Span control;
  Span spin_down;
  std::uint64_t control_accepted = 0;  ///< on_control returned non-zero
  std::uint64_t spin_down_allowed = 0;

  [[nodiscard]] double total_s() const {
    return init.seconds + route.seconds + after_serve.seconds +
           epoch.seconds + control.seconds + spin_down.seconds;
  }
  void add(const PolicySpans& other);
};

/// Policy that forwards every hook to `inner` and times it.
class TimedPolicy final : public pr::Policy {
 public:
  explicit TimedPolicy(pr::Policy& inner) : inner_(inner) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void initialize(pr::ArrayContext& ctx) override;
  pr::DiskId route(pr::ArrayContext& ctx, const pr::Request& req) override;
  [[nodiscard]] bool striped() const override { return inner_.striped(); }
  std::vector<pr::StripeChunk> stripe(pr::ArrayContext& ctx,
                                      const pr::Request& req) override;
  void after_serve(pr::ArrayContext& ctx, const pr::Request& req,
                   pr::DiskId d) override;
  void on_epoch(pr::ArrayContext& ctx, pr::Seconds now) override;
  int on_control(pr::ArrayContext& ctx, const pr::ControlDecision& decision,
                 pr::Seconds now) override;
  bool allow_spin_down(pr::ArrayContext& ctx, pr::DiskId d,
                       pr::Seconds now) override;
  [[nodiscard]] pr::RedundancyScheme* redundancy() override {
    return inner_.redundancy();
  }

  [[nodiscard]] const PolicySpans& spans() const { return spans_; }

 private:
  pr::Policy& inner_;
  PolicySpans spans_;
};

/// SimObserver that forwards every hook to `inner` and times it. Counts
/// events per kind so the JSONL line count can be reconciled against
/// what was forwarded.
class TimedObserver final : public pr::SimObserver {
 public:
  explicit TimedObserver(pr::SimObserver& inner) : inner_(inner) {}

  void on_run_start(const pr::RunStartEvent& e) override;
  void on_request_complete(const pr::RequestCompleteEvent& e) override;
  void on_speed_transition(const pr::SpeedTransitionEvent& e) override;
  void on_disk_state_change(const pr::DiskStateChangeEvent& e) override;
  void on_epoch_end(const pr::EpochEndEvent& e) override;
  void on_migration(const pr::MigrationEvent& e) override;
  void on_background_copy(const pr::BackgroundCopyEvent& e) override;
  void on_disk_fail(const pr::DiskFailEvent& e) override;
  void on_disk_recover(const pr::DiskRecoverEvent& e) override;
  void on_request_degraded(const pr::RequestDegradedEvent& e) override;
  void on_rebuild_start(const pr::RebuildStartEvent& e) override;
  void on_rebuild_progress(const pr::RebuildProgressEvent& e) override;
  void on_rebuild_complete(const pr::RebuildCompleteEvent& e) override;
  void on_stripe_reconstruct(const pr::StripeReconstructEvent& e) override;
  void on_control_update(const pr::ControlUpdateEvent& e) override;
  void on_run_end(const pr::RunEndEvent& e) override;

  [[nodiscard]] const Span& span() const { return span_; }
  [[nodiscard]] std::uint64_t background_copies() const { return copies_; }

 private:
  pr::SimObserver& inner_;
  Span span_;
  std::uint64_t copies_ = 0;
};

/// Per-layer host time for the traced run's ledger, in seconds.
struct Ledger {
  double wall = 0.0;  ///< traced wall time the ledger must explain
  std::map<std::string, double> layers;  ///< self time per layer
  void add(const std::string& layer, double s) { layers[layer] += s; }
  /// Emit ledger.<layer>_s / _share and ledger.unattributed_share.
  void emit(Report& report) const;
};

/// Add the sim.* counters, disk.* figures and policy.* spans that every
/// traced workload reports.
void emit_policy(Report& report, const PolicySpans& spans);
void emit_sim_counters(Report& report,
                       const std::vector<const pr::SimResult*>& results);

/// Each workload's entry point. Fills `report` with checks and with the
/// end-to-end metrics (untraced) or the per-layer metrics (traced).
void run_fleet_day(const Options& options, Report& report);
void run_trace_replay(const Options& options, Report& report);
void run_parity_sweep(const Options& options, Report& report);

/// End-to-end figures of one run, shared by the workloads.
struct EndToEnd {
  double requests_per_s = 0.0;
  double setup_s = 0.0;
  double energy_mj = 0.0;
  double mean_rt_ms = 0.0;
  double p99_rt_ms = 0.0;
  std::size_t p99_beyond = 0;  ///< reservoir samples beyond p99
  std::size_t p99_samples = 0;
  double array_afr_pct = 0.0;
  Accounting totals;
};
void emit_end_to_end(Report& report, const EndToEnd& e, double peak_rss);

/// One independent array's outcome (a shard, a scenario cell or a replayed
/// day) and the requests its source produced.
struct ArrayOutcome {
  const pr::SimResult* sim = nullptr;
  std::uint64_t produced = 0;
};

/// Simulated figures over independent arrays: energy summed, mean response
/// time request-weighted, p99 the mean of each array's reservoir p99 (one
/// 4,096-sample reservoir per array, so the estimate averages over every
/// array instead of resting on one reservoir), accounting summed. The
/// caller sets array_afr_pct and the host figures.
[[nodiscard]] EndToEnd aggregate(const std::vector<ArrayOutcome>& arrays);

/// Samples of the reservoir lying strictly above its p99.
[[nodiscard]] std::size_t beyond_p99(const pr::ReservoirSample& sample);

}  // namespace perfbench
