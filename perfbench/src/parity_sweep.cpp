// faulted_parity_sweep — a small scenario grid through the front door
// (load_scenario_file → run_scenario → CSV and full JSON reports):
// {READ, online-READ} × the paper's 8-disk array under wc98-heavy, with
// scripted mid-run disk kills, RAID-5 (groups of 4) with rebuild, and the
// latency, energy-budget and backlog controllers plus admission shedding.
// It is the only workload where the fault, redundancy, control and exp
// layers do work; generation is materialized once and shared by the
// cells, as the engine does.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/registry.h"
#include "core/report_io.h"
#include "exp/scenario.h"
#include "exp/scenario_engine.h"
#include "exp/scenario_report.h"
#include "fault/degradation_analyzer.h"
#include "fault/fault_plan.h"
#include "workload/synthetic.h"

namespace perfbench {

namespace {

constexpr int kMinIterations = 3;
constexpr int kSetupRepeats = 8;
/// Workload seeds per run (the scenario's seed axis): every policy runs
/// on this many independent days, so a run's figures do not rest on one
/// random file universe.
constexpr std::uint64_t kSeeds = 16;

/// The scenario file, minus the seed line. Two kills in different RAID-5
/// groups, half an hour apart, so parity always reconstructs and no data
/// is lost; the hazard stays silent (rate_scale = 0) so the traced pass
/// can rebuild the plan through FaultPlan::from_events.
constexpr const char* kScenario = R"(
[system]
disks = 8
epoch = 600

[workload heavy]
preset = wc98-heavy
requests = 250000

[policy read]
label = READ

[policy online-read]
label = online-READ

[fault]
rate_scale = 0
kill_disk = 2, 5
kill_at = 900, 2700

[redundancy]
scheme = raid5
group = 4
rebuild = true
rebuild_mbps = 1

[control]
target_rt_ms = 30
energy_budget_w = 90
adapt_epoch = true
admit_window = 0.5
)";

std::string write_scenario(const Options& options) {
  std::filesystem::create_directories(options.workdir);
  const std::string path = options.workdir + "/faulted_parity_sweep_" +
                           std::to_string(options.seed) + ".ini";
  std::ofstream out(path, std::ios::binary);
  out << "[scenario]\nname = faulted_parity_sweep\nthreads = 2\nseeds = ";
  for (std::uint64_t i = 0; i < kSeeds; ++i) {
    out << (i == 0 ? "" : ", ") << options.seed * kSeeds + i;
  }
  out << '\n' << kScenario;
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
  return path;
}

/// The synthetic config the engine resolves for the single workload at
/// `seed`.
pr::SyntheticWorkloadConfig variant_config(const pr::ScenarioSpec& spec,
                                           std::uint64_t seed) {
  const pr::ScenarioWorkload& w = spec.workloads.at(0);
  pr::SyntheticWorkloadConfig c = pr::preset_workload_config(w.preset, seed);
  if (w.files) c.file_count = *w.files;
  if (w.requests) c.request_count = *w.requests;
  if (w.zipf_alpha) c.zipf_alpha = *w.zipf_alpha;
  if (w.burstiness) c.burstiness = *w.burstiness;
  if (w.diurnal_depth) c.diurnal_depth = *w.diurnal_depth;
  return c;
}

struct Sweep {
  pr::ScenarioResult result;
  std::uint64_t csv_digest = 0;
  std::uint64_t json_digest = 0;
  std::uint64_t report_bytes = 0;
  double run_s = 0.0;
  double write_s = 0.0;
};

Sweep run_sweep(const pr::ScenarioSpec& spec) {
  Sweep s;
  const double t0 = now_s();
  s.result = pr::run_scenario(spec);
  const double t1 = now_s();
  DigestStream csv;
  pr::write_scenario_csv(s.result, csv);
  DigestStream json;
  pr::write_scenario_json(s.result, json, /*include_reports=*/true);
  s.csv_digest = csv.digest();
  s.json_digest = json.digest();
  s.report_bytes = csv.bytes() + json.bytes();
  s.write_s = now_s() - t1;
  s.run_s = t1 - t0;
  return s;
}

void check_sweep(const Sweep& s, std::uint64_t produced, Report& report) {
  std::size_t conserved = 0;
  std::size_t energy_ok = 0;
  std::size_t rebuild_ok = 0;
  for (const auto& cell : s.result.cells) {
    if (account(cell.report.sim, produced).conserved()) ++conserved;
    if (energy_matches_ledgers(cell.report.sim)) ++energy_ok;
    if (cell.redundancy &&
        cell.redundancy->rebuilds_completed <= cell.redundancy->rebuilds_started) {
      ++rebuild_ok;
    }
  }
  const std::size_t cells = s.result.cells.size();
  report.check("conservation", conserved == cells,
               "served + shed + lost == produced on " +
                   n_of(conserved, cells, "cells"));
  report.check("energy_ledgers", energy_ok == cells,
               "total energy == sum of per-disk ledgers on " +
                   n_of(energy_ok, cells, "cells"));
  report.check("rebuilds", rebuild_ok == cells,
               "rebuilds completed <= started on " +
                   n_of(rebuild_ok, cells, "cells"));
}

EndToEnd end_to_end(const Sweep& s, std::uint64_t produced) {
  std::vector<ArrayOutcome> arrays;
  double afr = 0.0;
  for (const auto& cell : s.result.cells) {
    arrays.push_back(ArrayOutcome{&cell.report.sim, produced});
    afr = std::max(afr, cell.report.array_afr * 100.0);  // worst disk
  }
  EndToEnd e = aggregate(arrays);
  e.array_afr_pct = afr;
  return e;
}

// The two helpers below mirror the engine's private [redundancy] mapping
// and scripted-kill plan; the traced_equals_engine check fails if they
// ever drift from it.
pr::RedundancyConfig redundancy_config(const pr::ScenarioSpec& spec) {
  pr::RedundancyConfig config;
  config.kind = pr::scenario_redundancy_kind(spec.redundancy);
  config.group = spec.redundancy.group;
  config.rebuild = spec.redundancy.rebuild;
  config.rebuild_mbps = spec.redundancy.rebuild_mbps;
  config.rebuild_chunk = static_cast<pr::Bytes>(spec.redundancy.rebuild_chunk);
  return config;
}

pr::FaultPlan kill_plan(const pr::ScenarioFault& fault) {
  std::vector<pr::FaultEvent> events;
  for (std::size_t i = 0; i < fault.kill_disks.size(); ++i) {
    pr::FaultEvent e;
    e.time = pr::Seconds{fault.kill_at_s[i]};
    e.disk = static_cast<pr::DiskId>(fault.kill_disks[i]);
    e.kind = pr::FaultKind::kFail;
    events.push_back(e);
  }
  return pr::FaultPlan::from_events(std::move(events));
}

/// The traced pass: each workload variant generated once, then every cell
/// in spec order through run_simulation with the source, the policy and
/// the engine's own DegradationAnalyzer wrapped (no observer is added).
void traced_pass(const pr::ScenarioSpec& spec, const Sweep& engine,
                 double untraced_wall, Report& report) {
  Ledger ledger;
  PolicySpans policy;
  double source_s = 0.0;
  double fault_s = 0.0;
  double sim_self = 0.0;
  double press_s = 0.0;
  std::uint64_t requests = 0;
  std::vector<pr::SystemReport> cells;

  struct Variant {
    pr::FileSet files;
    pr::Trace trace;
  };
  std::vector<Variant> variants;
  double fileset_s = 0.0;
  double gen_s = 0.0;
  std::uint64_t generated = 0;
  const double t0 = now_s();
  for (const std::uint64_t seed : spec.seeds) {
    const pr::SyntheticWorkloadConfig wc = variant_config(spec, seed);
    const double f0 = now_s();
    pr::SyntheticSource generator(wc);
    const double f1 = now_s();
    TimedSource timed_generator(generator);
    Variant v;
    auto& drained = v.trace.requests;
    drained.resize(wc.request_count);
    std::size_t filled = 0;
    while (filled < drained.size()) {
      const std::size_t n = timed_generator.next_batch(
          drained.data() + filled,
          std::min<std::size_t>(4096, drained.size() - filled));
      if (n == 0) break;
      filled += n;
    }
    drained.resize(filled);
    v.files = generator.files();
    fileset_s += f1 - f0;
    gen_s += timed_generator.span().seconds;
    generated += timed_generator.produced();
    variants.push_back(std::move(v));
  }
  const pr::FaultPlan plan = kill_plan(spec.fault);

  for (const auto& p : spec.policies) {
    for (const Variant& v : variants) {
      for (const double epoch_s : spec.epochs) {
        for (const std::size_t disks : spec.disks) {
          pr::SystemConfig config;
          config.sim.disk_count = disks;
          config.sim.epoch = pr::Seconds{epoch_s};
          config.sim.redundancy = redundancy_config(spec);
          config.sim.control = spec.control.config;
          config.sim.control.enabled = true;
          const double c0 = now_s();
          auto inner = pr::policies::make(p.name, p.params)();
          ledger.add("policy", now_s() - c0);
          TimedPolicy timed_policy(*inner);
          pr::TraceSource replay(v.trace);
          TimedSource source(replay);
          pr::DegradationAnalyzer analyzer;
          TimedObserver timed_analyzer(analyzer);
          const double r0 = now_s();
          pr::SimResult sim =
              pr::run_simulation(config.sim, v.files, source, timed_policy,
                                 &timed_analyzer, &plan);
          const double r1 = now_s();
          pr::SystemReport scored =
              pr::score(pr::PressModel{config.press}, std::move(sim));
          const double r2 = now_s();
          if (!plan.empty()) analyzer.merge_into(scored.sim);
          cells.push_back(std::move(scored));

          policy.add(timed_policy.spans());
          source_s += source.span().seconds;
          fault_s += timed_analyzer.span().seconds;
          sim_self += (r1 - r0) - source.span().seconds -
                      timed_policy.spans().total_s() -
                      timed_analyzer.span().seconds;
          press_s += r2 - r1;
          requests += source.produced();
        }
      }
    }
  }
  const double t1 = now_s();
  DigestStream csv;
  pr::write_scenario_csv(engine.result, csv);
  DigestStream json;
  pr::write_scenario_json(engine.result, json, /*include_reports=*/true);
  const bool reports_equal =
      csv.digest() == engine.csv_digest && json.digest() == engine.json_digest;
  const double t2 = now_s();

  std::size_t equal = 0;
  const std::size_t n_cells = engine.result.cells.size();
  for (std::size_t i = 0; i < cells.size() && i < n_cells; ++i) {
    if (report_digest(cells[i]) == report_digest(engine.result.cells[i].report)) {
      ++equal;
    }
  }
  report.check("traced_equals_engine",
               equal == n_cells && cells.size() == n_cells && reports_equal,
               n_of(equal, n_cells, "traced cells equal the engine's cells"));

  ledger.wall = t2 - t0;
  ledger.add("workload", fileset_s + gen_s + source_s);
  ledger.add("policy", policy.total_s());
  ledger.add("fault", fault_s);
  ledger.add("sim", sim_self);
  ledger.add("press", press_s);
  ledger.add("report", t2 - t1);
  ledger.emit(report);
  report.metric("trace_overhead_ratio", ledger.wall / untraced_wall, "ratio");

  report.metric("workload.gen_s", gen_s + source_s, "s");
  report.metric("workload.requests", static_cast<double>(generated), "count");
  report.metric("workload.gen_ns_per_request",
                gen_s / static_cast<double>(generated) * 1e9, "ns/req");
  report.metric("workload.fileset_s", fileset_s, "s");
  emit_policy(report, policy);
  report.metric("sim.self_s", sim_self, "s");
  report.metric("sim.self_ns_per_request",
                sim_self / static_cast<double>(requests) * 1e9, "ns/req");
  std::vector<const pr::SimResult*> results;
  for (const auto& c : cells) results.push_back(&c.sim);
  emit_sim_counters(report, results);
  report.metric("press.score_s", press_s, "s");
  double disks_scored = 0.0;
  for (const auto& c : cells) {
    disks_scored += static_cast<double>(c.disk_press.size());
  }
  report.metric("press.disks_scored", disks_scored, "count");
  report.metric("exp.scenario_s", engine.run_s, "s");
  report.metric("exp.cells", static_cast<double>(n_cells), "count");
  report.metric("exp.report_s", engine.write_s, "s");
  report.metric("exp.report_bytes", static_cast<double>(engine.report_bytes),
                "B");
}

}  // namespace

void run_parity_sweep(const Options& options, Report& report) {
  const InputFile input(write_scenario(options));
  const std::string& path = input.path();

  const double start = now_s();
  const double budget = options.trace ? options.seconds / 3.0 : options.seconds;
  std::vector<double> setups;
  std::vector<double> rates;
  std::vector<double> walls;
  // Peak RSS of one cold run: input preparation, set-up and the first
  // iteration. Repeats only re-use freed memory, and allocator arena reuse
  // across them would make a later peak depend on thread timing.
  double peak_rss = 0.0;
  Sweep last;
  pr::ScenarioSpec spec;
  std::uint64_t produced = 0;
  bool stable = true;
  do {
    setups.push_back(time_setup(kSetupRepeats, spec, [&] {
      return pr::load_scenario_file(path);
    }));
    produced = variant_config(spec, spec.seeds.at(0)).request_count;
    Sweep sweep = run_sweep(spec);
    const double wall = sweep.run_s + sweep.write_s;
    walls.push_back(wall);
    rates.push_back(static_cast<double>(produced * sweep.result.cells.size()) /
                    wall);
    if (walls.size() == 1) {
      peak_rss = peak_rss_mib();
      check_sweep(sweep, produced, report);
    } else {
      stable = stable && sweep.csv_digest == last.csv_digest &&
               sweep.json_digest == last.json_digest;
    }
    last = std::move(sweep);
  } while (now_s() - start < budget ||
           static_cast<int>(walls.size()) < kMinIterations);
  report.set_attempted(walls.size());
  report.check("deterministic", stable,
               std::to_string(walls.size()) +
                   " iterations gave one CSV and JSON report digest");

  if (!options.trace) {
    EndToEnd e = end_to_end(last, produced);
    e.requests_per_s = median(rates);
    e.setup_s = median(setups);
    note_spread(report, "requests_per_s", rates);
    note_spread(report, "setup_s", setups);
    emit_end_to_end(report, e, peak_rss);
    return;
  }
  // The traced pass runs the cells one after another; compare it with the
  // engine on one thread (results are thread-count independent).
  pr::ScenarioSpec single = spec;
  single.threads = 1;
  const Sweep one = run_sweep(single);
  report.check("threads_1_vs_2",
               one.csv_digest == last.csv_digest &&
                   one.json_digest == last.json_digest,
               "scenario reports at 1 and 2 engine threads");
  traced_pass(spec, last, one.run_s + one.write_s, report);
}

}  // namespace perfbench
