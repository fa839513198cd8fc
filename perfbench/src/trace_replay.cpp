// trace_replay_observed — the paper's 8-disk array replays a WC98-like
// day from a CSV file through trace::open (the bounded stream reader)
// under MAID, with a 60 s TimeSeriesRecorder and a default JsonlTraceWriter
// attached. The JSONL goes to an in-memory sink that only counts and
// digests bytes, so the figures measure the program, not the disk. The
// trace file is written during input preparation: generation is outside
// every timed region here.
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "core/registry.h"
#include "core/report_io.h"
#include "core/session.h"
#include "exp/scenario.h"
#include "obs/jsonl_writer.h"
#include "obs/time_series.h"
#include "trace/csv_trace.h"
#include "trace/trace_reader.h"
#include "trace/trace_stats.h"
#include "workload/synthetic.h"

namespace perfbench {

namespace {

constexpr const char* kPolicy = "maid";
constexpr int kMinIterations = 3;
const pr::Seconds kWindow{60.0};

pr::SyntheticWorkloadConfig day_config(std::uint64_t seed) {
  return pr::preset_workload_config("wc98-light", seed);
}

/// Input preparation: stream the synthetic day straight to CSV (never
/// materialized, so it does not inflate the peak RSS).
std::string write_trace(const std::string& workdir, std::uint64_t seed) {
  std::filesystem::create_directories(workdir);
  const std::string path =
      workdir + "/wc98_day_" + std::to_string(seed) + ".csv";
  pr::SyntheticSource source(day_config(seed));
  std::ofstream out(path, std::ios::binary);
  pr::write_csv_trace(source, out);
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
  return path;
}

/// Set-up: the streaming stats pass that builds the file universe, the
/// array config, and the replay source opened on the trace.
struct Setup {
  pr::FileSet files;
  pr::SystemConfig config;
  std::unique_ptr<pr::RequestSource> source;
};

Setup set_up(const std::string& spec) {
  Setup s;
  auto probe = pr::trace::open(spec);
  pr::TraceStatsAccumulator stats;
  pr::Request r;
  while (probe->next(r)) stats.add(r);
  s.files = pr::FileSet::from_trace_stats(stats.finalize());
  s.source = pr::trace::open(spec);
  return s;
}

/// Everything one replay writes, digested.
struct Outputs {
  pr::SystemReport report;
  std::uint64_t report_digest = 0;
  std::uint64_t timeline_digest = 0;
  std::uint64_t jsonl_digest = 0;
  std::uint64_t jsonl_bytes = 0;
  std::uint64_t jsonl_sink_lines = 0;
  std::uint64_t jsonl_lines = 0;
  std::size_t windows = 0;
  double write_s = 0.0;

  [[nodiscard]] bool same_bytes(const Outputs& o) const {
    return report_digest == o.report_digest &&
           timeline_digest == o.timeline_digest &&
           jsonl_digest == o.jsonl_digest;
  }
};

/// Writes the scored report and the timeline CSV (the run's reports).
void write_reports(Outputs& out, const pr::TimeSeriesRecorder& timeline) {
  const double t0 = now_s();
  DigestStream report;
  pr::write_json(out.report, report);
  DigestStream csv;
  timeline.write_csv(csv);
  out.report_digest = report.digest();
  out.timeline_digest = csv.digest();
  out.write_s = now_s() - t0;
  out.windows = timeline.window_count();
}

Outputs replay(Setup& s) {
  Outputs out;
  pr::TimeSeriesRecorder timeline{kWindow};
  DigestStream jsonl;
  pr::JsonlTraceWriter writer(jsonl);
  out.report = pr::SimulationSession(s.config)
                   .with_source(s.files, *s.source)
                   .with_policy(kPolicy)
                   .with_observer(timeline)
                   .with_observer(writer)
                   .run();
  write_reports(out, timeline);
  out.jsonl_digest = jsonl.digest();
  out.jsonl_bytes = jsonl.bytes();
  out.jsonl_sink_lines = jsonl.lines();
  out.jsonl_lines = writer.lines_written();
  return out;
}

/// The same day from the in-memory generator: the generated trace goes
/// through the CSV text format in memory (so both runs see the same
/// rounded arrivals) and replays materialized through the session.
std::uint64_t in_memory_digest(std::uint64_t seed, const pr::SystemConfig& config) {
  const pr::SyntheticWorkload day = pr::generate_workload(day_config(seed));
  std::stringstream text;
  pr::write_csv_trace(day.trace, text);
  const pr::Trace trace = pr::read_csv_trace(text);
  const pr::FileSet files =
      pr::FileSet::from_trace_stats(pr::compute_trace_stats(trace));
  return report_digest(pr::SimulationSession(config)
                           .with_workload(files, trace)
                           .with_policy(kPolicy)
                           .run());
}

/// The traced pass: the same replay through run_simulation with the
/// source, the policy and each observer wrapped, then score and reports.
void traced_pass(const std::string& spec, const Outputs& reference,
                 double untraced_wall, Report& report) {
  const double t0 = now_s();
  Setup s = set_up(spec);
  const double t1 = now_s();
  auto* line_source = dynamic_cast<pr::LineStreamSource*>(s.source.get());
  TimedSource source(*s.source);
  auto inner = pr::policies::make(kPolicy)();
  TimedPolicy policy(*inner);
  pr::TimeSeriesRecorder timeline{kWindow};
  DigestStream jsonl;
  pr::JsonlTraceWriter writer(jsonl);
  TimedObserver timed_timeline(timeline);
  TimedObserver timed_writer(writer);
  pr::ObserverList observers;
  observers.add(timed_timeline);
  observers.add(timed_writer);

  const double r0 = now_s();
  pr::SimResult sim = pr::run_simulation(s.config.sim, s.files, source, policy,
                                         &observers, nullptr);
  const double r1 = now_s();
  Outputs out;
  out.report = pr::score(pr::PressModel{s.config.press}, std::move(sim));
  const double r2 = now_s();
  write_reports(out, timeline);
  out.jsonl_digest = jsonl.digest();
  const double t2 = now_s();

  report.check("traced_equals_untraced", out.same_bytes(reference),
               "report, timeline and JSONL digests of the traced replay " +
                   std::string(out.same_bytes(reference) ? "equal"
                                                         : "differ from") +
                   " the untraced replay");
  // JSONL writes one line per forwarded event except background copies
  // (off by default in JsonlOptions).
  const std::uint64_t forwarded = timed_writer.span().calls;
  const std::uint64_t expected = forwarded - timed_writer.background_copies();
  report.check("jsonl_lines", writer.lines_written() == expected,
               std::to_string(writer.lines_written()) + " JSONL lines, " +
                   std::to_string(expected) + " line-writing events forwarded");

  const double run_s = r1 - r0;
  const double obs_s = timed_timeline.span().seconds + timed_writer.span().seconds;
  const double sim_self = run_s - source.span().seconds -
                          policy.spans().total_s() - obs_s;
  const double n = static_cast<double>(source.produced());

  Ledger ledger;
  ledger.wall = t2 - t0;
  ledger.add("trace", (t1 - t0) + source.span().seconds);
  ledger.add("policy", policy.spans().total_s());
  ledger.add("obs", obs_s);
  ledger.add("sim", sim_self);
  ledger.add("press", r2 - r1);
  ledger.add("report", out.write_s);
  ledger.emit(report);
  report.metric("trace_overhead_ratio", ledger.wall / untraced_wall, "ratio");

  report.metric("trace.parse_s", source.span().seconds, "s");
  report.metric("trace.requests", n, "count");
  report.metric("trace.bytes",
                static_cast<double>(std::filesystem::file_size(
                    pr::trace::resolve_spec(spec).path)),
                "B");
  report.metric("trace.parse_ns_per_request", source.span().seconds / n * 1e9,
                "ns/req");
  report.metric("trace.buffer_high_water_bytes",
                line_source == nullptr
                    ? 0.0
                    : static_cast<double>(line_source->buffer_high_water()),
                "B");
  emit_policy(report, policy.spans());
  report.metric("sim.self_s", sim_self, "s");
  report.metric("sim.self_ns_per_request", sim_self / n * 1e9, "ns/req");
  emit_sim_counters(report, {&out.report.sim});
  const double lines = static_cast<double>(writer.lines_written());
  report.metric("obs.events", static_cast<double>(forwarded), "count");
  report.metric("obs.jsonl_s", timed_writer.span().seconds, "s");
  report.metric("obs.jsonl_lines", lines, "count");
  report.metric("obs.jsonl_bytes", static_cast<double>(jsonl.bytes()), "B");
  report.metric("obs.jsonl_ns_per_line",
                timed_writer.span().seconds / lines * 1e9, "ns/line");
  report.metric("obs.timeseries_s", timed_timeline.span().seconds, "s");
  report.metric("obs.timeseries_windows", static_cast<double>(out.windows),
                "count");
  report.metric("press.score_s", r2 - r1, "s");
  report.metric("press.disks_scored",
                static_cast<double>(out.report.disk_press.size()), "count");
}

}  // namespace

void run_trace_replay(const Options& options, Report& report) {
  const InputFile input(write_trace(options.workdir, options.seed));
  const std::string& spec = input.path();
  const std::uint64_t produced = day_config(options.seed).request_count;

  const double start = now_s();
  const double budget = options.trace ? options.seconds / 2.0 : options.seconds;
  std::vector<double> setups;
  std::vector<double> rates;
  std::vector<double> walls;
  // Peak RSS of one cold run: input preparation, set-up and the first
  // replay. Repeats only re-use freed memory.
  double peak_rss = 0.0;
  Outputs first;
  pr::SystemConfig config;
  bool stable = true;
  bool lines_ok = true;
  do {
    const double t0 = now_s();
    Setup s = set_up(spec);
    const double t1 = now_s();
    Outputs out = replay(s);
    const double t2 = now_s();
    setups.push_back(t1 - t0);
    walls.push_back(t2 - t1);
    rates.push_back(static_cast<double>(s.source->produced()) / (t2 - t1));
    lines_ok = lines_ok && out.jsonl_lines == out.jsonl_sink_lines;
    config = s.config;
    if (walls.size() == 1) {
      peak_rss = peak_rss_mib();
      first = std::move(out);
    } else {
      stable = stable && out.same_bytes(first);
    }
  } while (now_s() - start < budget ||
           static_cast<int>(walls.size()) < kMinIterations);
  report.set_attempted(walls.size());

  EndToEnd e = aggregate({ArrayOutcome{&first.report.sim, produced}});
  e.array_afr_pct = first.report.array_afr * 100.0;
  report.check("conservation", e.totals.conserved(),
               "served + shed + lost == produced (" +
                   std::to_string(e.totals.produced) + " requests)");
  report.check("energy_ledgers", energy_matches_ledgers(first.report.sim),
               "total energy == sum of per-disk ledgers");
  report.check("deterministic", stable,
               std::to_string(walls.size()) +
                   " replays gave one report, timeline and JSONL digest");
  report.check("jsonl_sink_lines", lines_ok,
               "JSONL newlines in the sink == lines the writer reports");
  const bool same =
      in_memory_digest(options.seed, config) == first.report_digest;
  report.check("streamed_equals_in_memory", same,
               std::string("streamed CSV replay report ") +
                   (same ? "equals" : "differs from") +
                   " the in-memory generator's day");

  if (!options.trace) {
    e.requests_per_s = median(rates);
    e.setup_s = median(setups);
    note_spread(report, "requests_per_s", rates);
    note_spread(report, "setup_s", setups);
    emit_end_to_end(report, e, peak_rss);
    return;
  }
  traced_pass(spec, first, median(setups) + median(walls), report);
}

}  // namespace perfbench
