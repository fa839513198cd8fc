// Goldens for the scenario engine: its cell reports are pinned by
// committed hashes (captured when the engine and the retired imperative
// sweep driver still agreed byte for byte), a registry-knob cell must
// equal a session with the hand-built policy, and a parsed spec must
// equal the code-built one. This is the migration safety net for the
// benches that moved onto the scenario library.
#include <gtest/gtest.h>

#include <sstream>
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
