// fleet_day — a 1,000-disk fleet (125 shards × 8 disks) under READ and
// the wc98-light preset, every shard synthesizing its stream on pull,
// observers detached, one scored fleet report written. The timed region
// is run_fleet → score → report, so synthetic generation (the largest
// cost of a fleet day) is measured, not hidden behind a pre-materialized
// replay. It bypasses trace parsing, observers, faults, parity and
// control.
#include <string>
#include <vector>

#include "common.h"
#include "core/registry.h"
#include "core/report_io.h"
#include "exp/scenario.h"
#include "sim/fleet_sim.h"

namespace perfbench {

namespace {

constexpr std::uint32_t kShards = 125;
constexpr std::size_t kDisksPerShard = 8;
/// Fleet total, split evenly across shards (80,000 requests per shard).
constexpr std::size_t kFleetRequests = 10'000'000;
constexpr unsigned kThreads = 2;
constexpr int kMinIterations = 3;
constexpr int kSetupRepeats = 64;

struct FleetSetup {
  pr::SystemConfig system;
  pr::FleetConfig fleet;
};

FleetSetup set_up(std::uint64_t seed, unsigned threads) {
  FleetSetup s;
  s.system.sim.disk_count = kDisksPerShard;
  s.fleet.shard = s.system.sim;
  s.fleet.shards = kShards;
  s.fleet.threads = threads;
  s.fleet.workload = pr::preset_workload_config("wc98-light", seed);
  s.fleet.workload.request_count = kFleetRequests;
  s.fleet.base_seed = seed;
  s.fleet.policy = pr::policies::make("read");
  (void)pr::fleet_disk_count(s.fleet.shards, kDisksPerShard);
  return s;
}

/// One timed fleet day: run_fleet → score → report written.
struct Day {
  double run_s = 0.0;
  double score_s = 0.0;
  double write_s = 0.0;
  std::vector<pr::SimResult> shards;
  pr::SystemReport report;
  std::uint64_t digest = 0;
  std::uint64_t report_bytes = 0;

  [[nodiscard]] double wall() const { return run_s + score_s + write_s; }
};

Day run_day(const FleetSetup& s) {
  Day day;
  const double t0 = now_s();
  pr::FleetResult run = pr::run_fleet(s.fleet);
  const double t1 = now_s();
  day.report = pr::score(pr::PressModel{s.system.press}, std::move(run.merged));
  const double t2 = now_s();
  DigestStream out;
  pr::write_json(day.report, out);
  day.digest = out.digest();
  day.report_bytes = out.bytes();
  const double t3 = now_s();
  day.run_s = t1 - t0;
  day.score_s = t2 - t1;
  day.write_s = t3 - t2;
  day.shards = std::move(run.shards);
  return day;
}

/// Conservation and energy checks over every shard and the merge.
void check_day(const FleetSetup& s, const Day& day, Report& report) {
  std::size_t conserved = 0;
  std::size_t energy_ok = 0;
  for (std::uint32_t shard = 0; shard < kShards; ++shard) {
    const auto produced =
        pr::fleet_shard_workload(s.fleet, shard).request_count;
    if (account(day.shards[shard], produced).conserved()) ++conserved;
    if (energy_matches_ledgers(day.shards[shard])) ++energy_ok;
  }
  report.check("conservation", conserved == kShards,
               "served + shed + lost == produced on " +
                   n_of(conserved, kShards, "shards"));
  report.check("energy_ledgers",
               energy_ok == kShards && energy_matches_ledgers(day.report.sim),
               "total energy == sum of per-disk ledgers on " +
                   n_of(energy_ok, kShards, "shards and the merged fleet"));
}

EndToEnd end_to_end(const FleetSetup& s, const Day& day) {
  std::vector<ArrayOutcome> arrays;
  for (std::uint32_t shard = 0; shard < kShards; ++shard) {
    arrays.push_back(ArrayOutcome{
        &day.shards[shard],
        pr::fleet_shard_workload(s.fleet, shard).request_count});
  }
  EndToEnd e = aggregate(arrays);
  e.array_afr_pct = day.report.array_afr * 100.0;  // worst disk of the fleet
  return e;
}

/// The traced pass: shard by shard through fleet_shard_workload +
/// run_simulation, with the source and the policy wrapped. Observers stay
/// detached, so every shard keeps the fast path.
void traced_pass(const FleetSetup& s, const Day& reference, Report& report) {
  Ledger ledger;
  PolicySpans policy;
  double source_s = 0.0;
  double fileset_s = 0.0;
  double sim_self_s = 0.0;
  std::uint64_t requests = 0;
  std::size_t equal = 0;
  std::vector<pr::SimResult> shards(kShards);

  const double t0 = now_s();
  for (std::uint32_t shard = 0; shard < kShards; ++shard) {
    const double p0 = now_s();
    auto inner = s.fleet.policy();
    TimedPolicy timed_policy(*inner);
    const double f0 = now_s();
    pr::SyntheticSource source(pr::fleet_shard_workload(s.fleet, shard));
    const double f1 = now_s();
    TimedSource timed_source(source);
    shards[shard] = pr::run_simulation(s.fleet.shard, source.files(),
                                       timed_source, timed_policy, nullptr,
                                       nullptr);
    const double r1 = now_s();
    ledger.add("policy", f0 - p0);
    fileset_s += f1 - f0;
    source_s += timed_source.span().seconds;
    policy.add(timed_policy.spans());
    sim_self_s += (r1 - f1) - timed_source.span().seconds -
                  timed_policy.spans().total_s();
    requests += timed_source.produced();
  }
  const double t1 = now_s();
  // run_fleet's merge has no public seam, so score and write the reference
  // run's merged result — the same calls the untraced day makes.
  pr::SimResult merged = reference.report.sim;
  const pr::SystemReport scored =
      pr::score(pr::PressModel{s.system.press}, std::move(merged));
  const double t2 = now_s();
  DigestStream out;
  pr::write_json(scored, out);
  out.flush();
  const double t3 = now_s();

  for (std::uint32_t shard = 0; shard < kShards; ++shard) {
    if (result_digest(shards[shard]) == result_digest(reference.shards[shard])) {
      ++equal;
    }
  }
  report.check("traced_equals_untraced", equal == kShards,
               n_of(equal, kShards, "traced shards equal run_fleet's shards"));

  ledger.wall = t3 - t0;
  ledger.add("workload", fileset_s + source_s);
  ledger.add("policy", policy.total_s());
  ledger.add("sim", sim_self_s);
  ledger.add("press", t2 - t1);
  ledger.add("report", t3 - t2);
  ledger.emit(report);
  report.metric("trace_overhead_ratio", ledger.wall / reference.wall(),
                "ratio");

  const double n = static_cast<double>(requests);
  report.metric("workload.gen_s", source_s, "s");
  report.metric("workload.requests", n, "count");
  report.metric("workload.gen_ns_per_request", source_s / n * 1e9, "ns/req");
  report.metric("workload.fileset_s", fileset_s, "s");
  emit_policy(report, policy);
  report.metric("sim.self_s", sim_self_s, "s");
  report.metric("sim.self_ns_per_request", sim_self_s / n * 1e9, "ns/req");
  std::vector<const pr::SimResult*> results;
  for (const auto& r : shards) results.push_back(&r);
  emit_sim_counters(report, results);
  report.metric("press.score_s", t2 - t1, "s");
  report.metric("press.disks_scored",
                static_cast<double>(scored.disk_press.size()), "count");
}

}  // namespace

void run_fleet_day(const Options& options, Report& report) {
  const double start = now_s();
  // Traced runs spend a third of the budget on the untraced loop and the
  // rest on the 1-thread reference and the traced pass.
  const double budget = options.trace ? options.seconds / 3.0 : options.seconds;

  std::vector<double> setups;
  std::vector<double> rates;
  std::vector<double> walls;
  // Peak RSS of one cold run: input preparation, set-up and the first
  // iteration. Repeats only re-use freed memory, and allocator arena reuse
  // across them would make a later peak depend on thread timing.
  double peak_rss = 0.0;
  Day last;
  FleetSetup s;
  bool stable = true;
  do {
    setups.push_back(time_setup(kSetupRepeats, s, [&] {
      return set_up(options.seed, kThreads);
    }));
    Day day = run_day(s);
    rates.push_back(static_cast<double>(kFleetRequests) / day.wall());
    walls.push_back(day.run_s);
    if (walls.size() == 1) {
      peak_rss = peak_rss_mib();
      check_day(s, day, report);
    } else {
      stable = stable && day.digest == last.digest;
    }
    last = std::move(day);
  } while (now_s() - start < budget ||
           static_cast<int>(walls.size()) < kMinIterations);
  report.set_attempted(walls.size());
  report.check("deterministic", stable,
               std::to_string(walls.size()) +
                   " iterations gave one report digest");

  // Thread-count independence: the same day at 1 thread.
  const FleetSetup single = set_up(options.seed, 1);
  const Day one = run_day(single);
  report.check("threads_1_vs_2", one.digest == last.digest,
               "report digest at 1 thread " +
                   std::string(one.digest == last.digest ? "equals"
                                                         : "differs from") +
                   " 2 threads");

  if (!options.trace) {
    EndToEnd e = end_to_end(s, last);
    e.requests_per_s = median(rates);
    e.setup_s = median(setups);
    note_spread(report, "requests_per_s", rates);
    note_spread(report, "setup_s", setups);
    emit_end_to_end(report, e, peak_rss);
    return;
  }

  const double wall_2t = median(walls);
  report.metric("fleet.wall_1t_s", one.run_s, "s");
  report.metric("fleet.wall_s", wall_2t, "s");
  report.metric("fleet.speedup", one.run_s / wall_2t, "ratio");
  report.metric("fleet.shards", kShards, "count");
  traced_pass(single, one, report);
}

}  // namespace perfbench
