// Goldens for the scenario engine: its cell reports are pinned by
// committed hashes (captured when the engine and the retired imperative
// sweep driver still agreed byte for byte), a registry-knob cell must
// equal a session with the hand-built policy, and a parsed spec must
// equal the code-built one. This is the migration safety net for the
// benches that moved onto the scenario library.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/session.h"
#include "core/report_io.h"
#include "exp/scenario.h"
#include "exp/scenario_engine.h"
#include "exp/scenario_report.h"
#include "golden_hash.h"
#include "policy/read_policy.h"
#include "trace/csv_trace.h"

namespace pr {
namespace {

constexpr std::size_t kFiles = 120;
constexpr std::size_t kRequests = 3000;

ScenarioWorkload mini_light() {
  ScenarioWorkload w;
  w.name = "light";
  w.preset = "wc98-light";
  w.files = kFiles;
  w.requests = kRequests;
  return w;
}

// The engine's (policy x workload x disks) grid: cell order and labels,
// and each cell's report JSON pinned by a committed hash.
TEST(ScenarioGolden, EngineCellsMatchCommittedHashes) {
  ScenarioSpec spec;
  spec.name = "golden";
  spec.threads = 2;
  spec.seeds = {42};
  spec.disks = {2, 4};
  spec.epochs = {600.0};
  spec.workloads = {mini_light()};
  spec.policies.push_back({"read", "READ", {}});
  spec.policies.push_back({"maid", "MAID", {}});
  const ScenarioResult result = run_scenario(spec);

  struct Golden {
    const char* policy;
    std::size_t disks;
    std::uint64_t report;
  };
  const Golden cells[] = {{"READ", 2, 2834310202617682052ULL},
                          {"READ", 4, 11518334742075088439ULL},
                          {"MAID", 2, 11894578186725816127ULL},
                          {"MAID", 4, 18095641923463096293ULL}};
  ASSERT_EQ(result.cells.size(), std::size(cells));
  for (std::size_t i = 0; i < std::size(cells); ++i) {
    const ScenarioCell& cell = result.cells[i];
    EXPECT_EQ(cell.policy, cells[i].policy) << "cell " << i;
    EXPECT_EQ(cell.workload, "light") << "cell " << i;
    EXPECT_EQ(cell.disks, cells[i].disks) << "cell " << i;
#if PR_GOLDEN_HASHES
    EXPECT_EQ(golden::fnv1a(pr::to_json(cell.report)), cells[i].report)
        << "cell " << i << " report hash drifted";
#endif
  }
}

// Fleet cells folded across shards: the merged CSV and each cell's report
// JSON pinned by committed hashes, so a change to the fleet path (shard
// seeds, hazard plans, the fault/redundancy fold) cannot hide behind the
// threads=1 == threads=N comparisons alone.
constexpr const char* kFleetIni = R"([scenario]
name = fleet_test
threads = 1
seeds = 42

[system]
disks = 4
epoch = 300

[fleet]
shards = 4
threads = 1

[workload light]
preset = wc98-light
files = 100
requests = 8000

[policy read]
label = READ
)";

ScenarioSpec declustered_fleet_kill() {
  ScenarioSpec spec;
  spec.name = "fleet_redundancy";
  spec.threads = 1;
  spec.disks = {4};
  spec.epochs = {600.0};
  ScenarioWorkload w;
  w.files = 60;
  w.requests = 2'000;
  spec.workloads.push_back(w);
  spec.policies.push_back({"read", "READ", {}});
  spec.fault.enabled = true;
  spec.fault.afr = 0.3;
  spec.fault.rate_scales = {0.0};
  spec.fault.kill_disks = {1};
  spec.fault.kill_at_s = {60.0};
  spec.redundancy.enabled = true;
  spec.redundancy.scheme = "declustered";
  spec.redundancy.group = 3;
  spec.redundancy.rebuild_mbps = 8.0;
  spec.fleet.enabled = true;
  spec.fleet.shards = 3;
  return spec;
}

TEST(ScenarioGolden, FleetCellsMatchCommittedHashes) {
  const std::string faulted = std::string(kFleetIni) +
                              "\n[fault]\nseed = 7\nafr = 0.08\n"
                              "rate_scale = 0,200000\nmttr = 60\n";
  const std::string raid5 = std::string(kFleetIni) +
                            "\n[fault]\nseed = 11\nafr = 0.08\n"
                            "rate_scale = 4000000\nmttr = 20\n"
                            "\n[redundancy]\nscheme = raid5\ngroup = 4\n"
                            "rebuild_mbps = 0.7\n";
  struct Golden {
    const char* name;
    ScenarioSpec spec;
    std::uint64_t csv;
    std::vector<std::uint64_t> reports;
  };
  const Golden goldens[] = {
      {"fleet", parse_scenario(kFleetIni, "fleet.ini"),
       13030823462438284265ULL, {6079858716904413009ULL}},
      {"fleet x fault", parse_scenario(faulted, "fault.ini"),
       15434748974968184425ULL,
       {6079858716904413009ULL, 6079858716904413009ULL}},
      {"fleet x declustered kill", declustered_fleet_kill(),
       13780829533799534243ULL, {10617904236071125829ULL}},
      {"fleet x raid5 hazard", parse_scenario(raid5, "raid5.ini"),
       13285019296289986944ULL, {8114704735990552554ULL}},
  };
  for (const Golden& g : goldens) {
    const ScenarioResult result = run_scenario(g.spec);
    std::ostringstream csv;
    write_scenario_csv(result, csv);
    ASSERT_EQ(result.cells.size(), g.reports.size()) << g.name;
#if PR_GOLDEN_HASHES
    EXPECT_EQ(golden::fnv1a(csv.str()), g.csv) << g.name << " CSV drifted";
    for (std::size_t i = 0; i < g.reports.size(); ++i) {
      EXPECT_EQ(golden::fnv1a(pr::to_json(result.cells[i].report)),
                g.reports[i])
          << g.name << " cell " << i << " report hash drifted";
    }
#endif
  }
}

// A multi-variant grid: 3 seeds x 2 loads of a synthetic day plus one
// `kind = trace` file, under READ and MAID with a hazard rate scale > 0
// (so every cell's fault plan depends on its variant's horizon). The CSV
// and each cell's report JSON are pinned by committed hashes at 1, 2 and
// 4 threads — the variant lifetime and the cell order are free to change
// as long as these bytes do not.
ScenarioSpec multi_variant_spec(const std::string& trace_path,
                                unsigned threads) {
  ScenarioSpec spec;
  spec.name = "multi_variant";
  spec.threads = threads;
  spec.seeds = {3, 5, 8};
  spec.disks = {4};
  spec.epochs = {300.0};
  ScenarioWorkload light = mini_light();
  light.requests = 1'500;
  light.loads = {1.0, 2.5};
  spec.workloads.push_back(light);
  ScenarioWorkload file;
  file.name = "file";
  file.kind = "trace";
  file.path = trace_path;
  spec.workloads.push_back(file);
  spec.policies.push_back({"read", "READ", {}});
  spec.policies.push_back({"maid", "MAID", {}});
  spec.fault.enabled = true;
  spec.fault.seed = 13;
  spec.fault.afr = 0.08;
  spec.fault.rate_scales = {3'000'000.0};
  spec.fault.mttr_s = 30.0;
  return spec;
}

std::string write_multi_variant_trace() {
  SyntheticWorkloadConfig config = worldcup98_light_config(21);
  config.file_count = 80;
  config.request_count = 1'200;
  const std::string path = testing::TempDir() + "multi_variant_golden.csv";
  write_csv_trace_file(generate_workload(config).trace, path);
  return path;
}

TEST(ScenarioGolden, MultiVariantGridMatchesCommittedHashesAtAnyThreadCount) {
  const std::string path = write_multi_variant_trace();
  constexpr std::uint64_t kCsv = 9334622101069089483ULL;
  // Policy-major, then (workload, load, seed) variant order.
  constexpr std::uint64_t kReports[] = {
      9795064700649941613ULL,  16005207455460355411ULL,
      659485666563141147ULL,   15227156503547558171ULL,
      13901251460532729106ULL, 5779329267646891423ULL,
      10547364631138306865ULL, 8456741022116362865ULL,
      13957412998813667956ULL, 8379213673828545574ULL,
      5655007800735463145ULL,  13178418864353252051ULL,
      17408336231743480097ULL, 8154638800689430611ULL};
  for (const unsigned threads : {1u, 2u, 4u}) {
    const ScenarioResult result =
        run_scenario(multi_variant_spec(path, threads));
    ASSERT_EQ(result.cells.size(), std::size(kReports))
        << "threads " << threads;
    std::uint64_t failures = 0;
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
      const ScenarioCell& cell = result.cells[i];
      EXPECT_EQ(cell.policy, i < 7 ? "READ" : "MAID") << "cell " << i;
      EXPECT_EQ(cell.workload, i % 7 == 6 ? "file" : "light") << "cell " << i;
      ASSERT_TRUE(cell.fault.has_value()) << "cell " << i;
      failures += cell.fault->failures;
    }
    EXPECT_GT(failures, 0u) << "the hazard draw must inject faults";
#if PR_GOLDEN_HASHES
    std::ostringstream csv;
    write_scenario_csv(result, csv);
    EXPECT_EQ(golden::fnv1a(csv.str()), kCsv)
        << "threads " << threads << " CSV drifted";
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
      EXPECT_EQ(golden::fnv1a(pr::to_json(result.cells[i].report)),
                kReports[i])
          << "threads " << threads << " cell " << i << " report hash drifted";
    }
#endif
  }
  std::remove(path.c_str());
}

// A `kind = trace` workload whose file is missing fails the scenario with
// the reader's own exception, whenever the engine gets to open it.
TEST(ScenarioGolden, MissingTraceFileThrowsTheReadersError) {
  const std::string path = testing::TempDir() + "no_such_trace.csv";
  std::remove(path.c_str());
  ScenarioSpec spec = multi_variant_spec(path, 2);
  try {
    (void)run_scenario(spec);
    FAIL() << "a missing trace file must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "read_csv_trace_file: cannot open " + path);
  }
}

// With two missing `kind = trace` files behind a synthetic workload, the
// error is the first file's at every thread count: generation stops at
// the first failure, whatever the workers are running.
TEST(ScenarioGolden, FirstMissingTraceFileWinsAtAnyThreadCount) {
  const std::string first = testing::TempDir() + "no_such_trace_a.csv";
  const std::string second = testing::TempDir() + "no_such_trace_b.csv";
  std::remove(first.c_str());
  std::remove(second.c_str());
  for (const unsigned threads : {1u, 2u, 4u}) {
    ScenarioSpec spec = multi_variant_spec(first, threads);
    ScenarioWorkload missing = spec.workloads.back();
    missing.name = "missing";
    missing.path = second;
    spec.workloads.push_back(missing);
    try {
      (void)run_scenario(spec);
      ADD_FAILURE() << "threads " << threads << ": missing files must throw";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                "read_csv_trace_file: cannot open " + first)
          << "threads " << threads;
    }
  }
}

// A cell built from registry knobs must equal a direct session run with
// the equivalent hand-built config struct — i.e. the ParamMap really reaches
// the policy's config fields.
TEST(ScenarioGolden, RegistryKnobsReachPolicyConfig) {
  ScenarioSpec spec;
  spec.name = "knobs";
  spec.threads = 1;
  spec.seeds = {42};
  spec.disks = {4};
  spec.epochs = {600.0};
  spec.workloads = {mini_light()};
  // theta changes the zoning split, so its effect is visible even on a
  // tiny trace (cap/threshold only matter once transitions happen).
  spec.policies.push_back(
      {"read", "READ", ParamMap{{"theta", "0.5"}, {"cap", "55"}}});
  const ScenarioResult modern = run_scenario(spec);
  ASSERT_EQ(modern.cells.size(), 1u);

  auto wc = worldcup98_light_config(42);
  wc.file_count = kFiles;
  wc.request_count = kRequests;
  const auto workload = generate_workload(wc);
  ReadConfig rc;
  rc.theta = 0.5;
  rc.max_transitions_per_day = 55;
  ReadPolicy policy(rc);
  SystemConfig config;
  config.sim.disk_count = 4;
  config.sim.epoch = Seconds{600.0};
  const SystemReport direct =
      SimulationSession(config)
          .with_workload(workload.files, workload.trace)
          .with_policy(policy)
          .run();

  EXPECT_EQ(pr::to_json(direct), pr::to_json(modern.cells[0].report));

  // Sanity: the knob changed something relative to the defaults.
  ScenarioSpec defaults = spec;
  defaults.policies[0].params = ParamMap{};
  const ScenarioResult base = run_scenario(defaults);
  ASSERT_EQ(base.cells.size(), 1u);
  EXPECT_NE(pr::to_json(base.cells[0].report),
            pr::to_json(modern.cells[0].report))
      << "theta=0.5 should differ from the estimated-theta default";
}

// A spec parsed from INI text must serialize identically to the same spec
// built in code.
TEST(ScenarioGolden, ParsedSpecMatchesCodeBuiltSpec) {
  const std::string ini = R"([scenario]
name = golden
threads = 2
seeds = 42

[system]
disks = 2,4
epoch = 600

[workload light]
preset = wc98-light
files = 120
requests = 3000

[policy read]
label = READ

[policy maid]
label = MAID
)";
  const ScenarioResult parsed = run_scenario(parse_scenario(ini, "g.ini"));

  ScenarioSpec spec;
  spec.name = "golden";
  spec.threads = 2;
  spec.seeds = {42};
  spec.disks = {2, 4};
  spec.epochs = {600.0};
  spec.workloads = {mini_light()};
  spec.policies.push_back({"read", "READ", {}});
  spec.policies.push_back({"maid", "MAID", {}});
  const ScenarioResult built = run_scenario(spec);

  EXPECT_EQ(to_json(parsed, /*include_reports=*/true),
            to_json(built, /*include_reports=*/true));
}

}  // namespace
}  // namespace pr
