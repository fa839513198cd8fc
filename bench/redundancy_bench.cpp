// redundancy_bench — google-benchmark for the redundancy seam
// (src/redundancy + the array-simulator degraded path). Two questions:
//
//   BM_DegradedRead     what a run costs when one disk is down from t=0
//                       and every read that lands on it fans out into a
//                       parity reconstruction (RAID-5: group-wide,
//                       declustered: rotated partners), against the
//                       fault-free baseline of the same parity config
//   BM_RebuildOverhead  the cost per unit of a mid-run failure, from the
//                       runs' own counters: ns per reconstructed read and
//                       ns per rebuild step (see rebuild_overhead below —
//                       a kill with and without the rebuild serves
//                       different degraded-read volumes, so the two runs'
//                       difference alone is not the rebuild's cost)
//
// Workloads are materialized ONCE outside the timing loop so the timed
// region is pure simulator; fault plans are fixed event lists, so every
// iteration replays the identical faulted run (determinism makes these
// benches noise-free by construction).
//
// PR_BENCH_QUICK=1 (the CI quick-bench loop) scales the request count
// down ~5× so the binary stays sub-second there; local runs record the
// full points for scripts/bench_snapshot.sh.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

#include "bench_common.h"
#include "core/session.h"
#include "fault/fault_plan.h"
#include "redundancy/redundancy_config.h"
#include "workload/synthetic.h"

namespace {

using namespace pr;

SyntheticWorkload make_workload(std::uint64_t requests) {
  auto wc = worldcup98_light_config(42);
  wc.file_count = 200;
  wc.request_count = requests;
  return generate_workload(wc);
}

SystemConfig make_config(RedundancyKind kind, bool rebuild, double mbps) {
  SystemConfig cfg;
  cfg.sim.disk_count = 6;
  cfg.sim.epoch = Seconds{600.0};
  cfg.sim.redundancy.kind = kind;
  cfg.sim.redundancy.rebuild = rebuild;
  cfg.sim.redundancy.rebuild_mbps = mbps;
  return cfg;
}

SystemReport run_once(const SystemConfig& cfg,
                      const SyntheticWorkload& workload,
                      const FaultPlan* plan) {
  SimulationSession session(cfg);
  session.with_workload(workload).with_policy("read");
  if (plan != nullptr) session.with_faults(*plan);
  return session.run();
}

void run_point(benchmark::State& state, const SyntheticWorkload& workload,
               RedundancyKind kind, const FaultPlan* plan, bool rebuild,
               double mbps) {
  const SystemConfig cfg = make_config(kind, rebuild, mbps);
  for (auto _ : state) {
    SystemReport report = run_once(cfg, workload, plan);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(workload.trace.requests.size()));
}

void register_point(const char* name, const SyntheticWorkload& workload,
                    RedundancyKind kind, const FaultPlan* plan, bool rebuild,
                    double mbps) {
  benchmark::RegisterBenchmark(name,
                               [&workload, kind, plan, rebuild,
                                mbps](benchmark::State& state) {
                                 run_point(state, workload, kind, plan,
                                           rebuild, mbps);
                               })
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
}

/// Per-unit costs of a mid-run RAID-5 failure. Each iteration times three
/// runs of one workload: fault-free (T0), the kill without rebuild (T1,
/// R1 reconstructed reads), and the kill with a paced rebuild in small
/// chunks (T2, R2 reconstructed reads, S rebuild steps). Taking the
/// fault-free run as the baseline, T1 − T0 = R1·c_read and
/// T2 − T0 = R2·c_read + S·c_step, which gives ns per reconstructed read
/// and ns per rebuild step (wake-ups included) from the runs' own
/// sim.requests_reconstructed and redundancy.rebuild_steps counters.
void rebuild_overhead(benchmark::State& state,
                      const SyntheticWorkload& workload,
                      const FaultPlan& mid_run) {
  const SystemConfig fault_free = make_config(RedundancyKind::kRaid5, false,
                                              32.0);
  SystemConfig rebuild = make_config(RedundancyKind::kRaid5, true, 8.0);
  rebuild.sim.redundancy.rebuild_chunk = 1 * kKiB;
  using Clock = std::chrono::steady_clock;
  const auto timed = [&](const SystemConfig& cfg, const FaultPlan* plan,
                         double& seconds) {
    const auto t0 = Clock::now();
    SystemReport report = run_once(cfg, workload, plan);
    seconds += std::chrono::duration<double>(Clock::now() - t0).count();
    benchmark::DoNotOptimize(report);
    return report.sim.counters;
  };
  double t0 = 0.0;
  double t1 = 0.0;
  double t2 = 0.0;
  std::map<std::string, std::uint64_t> kill;
  std::map<std::string, std::uint64_t> rebuilt;
  for (auto _ : state) {
    (void)timed(fault_free, nullptr, t0);
    kill = timed(fault_free, &mid_run, t1);
    rebuilt = timed(rebuild, &mid_run, t2);
  }
  const auto n = static_cast<double>(state.iterations());
  const auto r1 =
      static_cast<double>(kill["sim.requests_reconstructed"]);
  const auto r2 =
      static_cast<double>(rebuilt["sim.requests_reconstructed"]);
  const auto steps = static_cast<double>(rebuilt["redundancy.rebuild_steps"]);
  const double c_read = r1 > 0.0 ? (t1 - t0) / n / r1 : 0.0;
  const double c_step =
      steps > 0.0 ? ((t2 - t0) / n - r2 * c_read) / steps : 0.0;
  state.counters["reconstructed_reads"] = r1;
  state.counters["rebuild_steps"] = steps;
  state.counters["ns_per_reconstructed_read"] = c_read * 1e9;
  state.counters["ns_per_rebuild_step"] = c_step * 1e9;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t requests = pr::bench::quick_mode() ? 20'000 : 100'000;
  const SyntheticWorkload workload = make_workload(requests);

  // Disk 0 down before the first arrival and never repaired: every read
  // routed there is degraded for the whole run.
  const FaultPlan whole_run =
      FaultPlan::from_events({{Seconds{0.0}, 0, FaultKind::kFail}});
  // Mid-run kill for the rebuild points (the wc98-light horizon is
  // ~58.4 ms per request, so 300 s sits inside even the quick run).
  const FaultPlan mid_run =
      FaultPlan::from_events({{Seconds{300.0}, 0, FaultKind::kFail}});

  register_point("BM_DegradedRead/raid5_fault_free", workload,
                 RedundancyKind::kRaid5, nullptr, false, 32.0);
  register_point("BM_DegradedRead/raid5_one_down", workload,
                 RedundancyKind::kRaid5, &whole_run, false, 32.0);
  register_point("BM_DegradedRead/declustered_one_down", workload,
                 RedundancyKind::kDeclustered, &whole_run, false, 32.0);

  benchmark::RegisterBenchmark("BM_RebuildOverhead/raid5_per_unit",
                               [&workload, &mid_run](benchmark::State& s) {
                                 rebuild_overhead(s, workload, mid_run);
                               })
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
