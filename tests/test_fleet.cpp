// Fleet simulation (src/sim/fleet_sim): seed derivation, checked
// geometry, shard-order merge semantics, and the headline determinism
// contract — threads=1 and threads=N produce byte-identical merged
// results, per-shard JSONL, and scenario CSV, with and without faults.
#include "sim/fleet_sim.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/session.h"
#include "exp/scenario.h"
#include "exp/scenario_engine.h"
#include "exp/scenario_report.h"
#include "obs/jsonl_writer.h"
#include "util/stats.h"

namespace pr {
namespace {

FleetConfig small_fleet(std::uint32_t shards, unsigned threads) {
  FleetConfig fleet;
  fleet.shard.disk_params = two_speed_cheetah();
  fleet.shard.disk_count = 4;
  fleet.shard.epoch = Seconds{300.0};
  fleet.shards = shards;
  fleet.threads = threads;
  fleet.workload = worldcup98_light_config(42);
  fleet.workload.file_count = 120;
  fleet.workload.request_count = 12'000;  // fleet total
  fleet.base_seed = 42;
  fleet.policy = policies::make("read");
  return fleet;
}

void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.policy_name, b.policy_name);
  EXPECT_EQ(a.user_requests, b.user_requests);
  EXPECT_EQ(a.response_time.count(), b.response_time.count());
  EXPECT_EQ(a.response_time.mean(), b.response_time.mean());
  EXPECT_EQ(a.response_time.max(), b.response_time.max());
  EXPECT_EQ(a.response_time_sample.quantile(0.95),
            b.response_time_sample.quantile(0.95));
  EXPECT_EQ(a.total_energy.value(), b.total_energy.value());
  EXPECT_EQ(a.horizon.value(), b.horizon.value());
  EXPECT_EQ(a.total_transitions, b.total_transitions);
  EXPECT_EQ(a.max_transitions_per_day, b.max_transitions_per_day);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.migration_bytes, b.migration_bytes);
  EXPECT_EQ(a.counters, b.counters);
  ASSERT_EQ(a.ledgers.size(), b.ledgers.size());
  for (std::size_t d = 0; d < a.ledgers.size(); ++d) {
    EXPECT_EQ(a.ledgers[d].busy_time.value(), b.ledgers[d].busy_time.value());
    EXPECT_EQ(a.ledgers[d].energy.value(), b.ledgers[d].energy.value());
    EXPECT_EQ(a.ledgers[d].requests, b.ledgers[d].requests);
  }
}

// ------------------------------------------------------------ seeds & ids

TEST(FleetSeeds, ShardSeedsAreDistinctAndPure) {
  EXPECT_EQ(fleet_shard_seed(42, 0), fleet_shard_seed(42, 0));
  EXPECT_NE(fleet_shard_seed(42, 0), fleet_shard_seed(42, 1));
  EXPECT_NE(fleet_shard_seed(42, 0), fleet_shard_seed(43, 0));
  // Consecutive shard seeds must not collapse to a stride (splitmix
  // finalizer, not an LCG).
  EXPECT_NE(fleet_shard_seed(42, 2) - fleet_shard_seed(42, 1),
            fleet_shard_seed(42, 1) - fleet_shard_seed(42, 0));
}

TEST(FleetGeometry, CountChecksOverflowAndZero) {
  EXPECT_EQ(fleet_disk_count(125, 8), 1000u);
  EXPECT_EQ(fleet_disk_count(1, 1), 1u);
  EXPECT_THROW((void)fleet_disk_count(0, 8), std::invalid_argument);
  EXPECT_THROW((void)fleet_disk_count(8, 0), std::invalid_argument);
  // 65536 * 65536 == 2^32 leaves the 32-bit DiskId space.
  EXPECT_THROW((void)fleet_disk_count(65'536, 65'536), std::invalid_argument);
  // Largest valid product: one below the kInvalidDisk sentinel.
  EXPECT_EQ(fleet_disk_count(0xFFFFFFFEu, 1), 0xFFFFFFFEu);
  EXPECT_THROW((void)fleet_disk_count(0xFFFFFFFFu, 1), std::invalid_argument);
}

TEST(FleetWorkloadSplit, RemainderGoesToLeadingShards) {
  FleetConfig fleet = small_fleet(5, 1);
  fleet.workload.request_count = 12'003;
  std::size_t total = 0;
  for (std::uint32_t s = 0; s < fleet.shards; ++s) {
    const SyntheticWorkloadConfig wc = fleet_shard_workload(fleet, s);
    EXPECT_EQ(wc.request_count, s < 3 ? 2401u : 2400u);
    EXPECT_EQ(wc.seed, fleet_shard_seed(fleet.base_seed, s));
    total += wc.request_count;
  }
  EXPECT_EQ(total, 12'003u);
}

// --------------------------------------------------------------- merging

TEST(FleetMerge, MatchesManualShardFold) {
  FleetConfig fleet = small_fleet(3, 1);
  const FleetResult result = run_fleet(fleet);
  ASSERT_EQ(result.shards.size(), 3u);
  EXPECT_EQ(result.fleet_disks(), 12u);
  EXPECT_EQ(result.merged.ledgers.size(), 12u);

  std::size_t requests = 0;
  Joules energy{0.0};
  for (const SimResult& shard : result.shards) {
    requests += shard.user_requests;
    energy += shard.total_energy;
  }
  EXPECT_EQ(result.merged.user_requests, requests);
  EXPECT_EQ(result.merged.user_requests, 12'000u);
  EXPECT_EQ(result.merged.total_energy.value(), energy.value());
  // Fleet disk id = shard * disks_per_shard + local: shard 1's ledger 0
  // lands at merged index 4.
  EXPECT_EQ(result.merged.ledgers[4].requests,
            result.shards[1].ledgers[0].requests);
}

TEST(FleetMerge, MissingPolicyThrows) {
  FleetConfig fleet = small_fleet(2, 1);
  fleet.policy = nullptr;
  EXPECT_THROW((void)run_fleet(fleet), std::logic_error);
}

// --------------------------------------------------- threads invariance

TEST(FleetDeterminism, ThreadCountNeverChangesResults) {
  const FleetResult one = run_fleet(small_fleet(4, 1));
  const FleetResult many = run_fleet(small_fleet(4, 3));
  expect_identical(one.merged, many.merged);
  ASSERT_EQ(one.shards.size(), many.shards.size());
  for (std::size_t s = 0; s < one.shards.size(); ++s) {
    expect_identical(one.shards[s], many.shards[s]);
  }
}

TEST(FleetDeterminism, PerShardJsonlIsByteIdentical) {
  const auto run_with_jsonl = [](unsigned threads) {
    FleetConfig fleet = small_fleet(3, threads);
    auto streams = std::make_shared<std::vector<std::ostringstream>>(3);
    fleet.shard_observer = [streams](std::uint32_t shard) {
      return std::make_unique<JsonlTraceWriter>((*streams)[shard]);
    };
    (void)run_fleet(fleet);
    std::vector<std::string> out;
    for (auto& s : *streams) out.push_back(s.str());
    return out;
  };
  const std::vector<std::string> one = run_with_jsonl(1);
  const std::vector<std::string> many = run_with_jsonl(3);
  ASSERT_EQ(one.size(), many.size());
  for (std::size_t s = 0; s < one.size(); ++s) {
    EXPECT_FALSE(one[s].empty());
    EXPECT_EQ(one[s], many[s]) << "shard " << s;
  }
}

// --------------------------------------------------------------- session

TEST(FleetSession, RunsThroughSimulationSession) {
  SystemConfig config;
  config.sim.disk_count = 999;  // with_fleet overrides with disks_per_shard
  SyntheticWorkloadConfig wc = worldcup98_light_config(42);
  wc.file_count = 120;
  wc.request_count = 12'000;
  const SystemReport report = SimulationSession(config)
                                  .with_workload(wc)
                                  .with_policy("read")
                                  .with_fleet(3, 4)
                                  .run();
  EXPECT_EQ(report.sim.ledgers.size(), 12u);
  EXPECT_EQ(report.sim.user_requests, 12'000u);

  // Byte-identical to the direct run_fleet path.
  const FleetResult direct = run_fleet(small_fleet(3, 1));
  EXPECT_EQ(report.sim.total_energy.value(),
            direct.merged.total_energy.value());
  EXPECT_EQ(report.sim.response_time.mean(),
            direct.merged.response_time.mean());
}

TEST(FleetSession, RejectsUnsupportedCombos) {
  SyntheticWorkloadConfig wc = worldcup98_light_config(42);
  wc.file_count = 50;
  wc.request_count = 500;
  // Fleet needs a name-based policy (fresh instance per shard).
  auto owned = policies::make("read")();
  EXPECT_THROW((void)SimulationSession()
                   .with_workload(wc)
                   .with_policy(std::move(owned))
                   .with_fleet(2, 2)
                   .run(),
               std::logic_error);
  // ...and a synthetic workload config.
  EXPECT_THROW((void)SimulationSession()
                   .with_policy("read")
                   .with_fleet(2, 2)
                   .run(),
               std::logic_error);
  // Geometry is checked at with_fleet time.
  EXPECT_THROW((void)SimulationSession().with_fleet(0, 8),
               std::invalid_argument);
}

TEST(FleetSession, SyntheticConfigWorksSingleArray) {
  // A SyntheticWorkloadConfig workload without with_fleet runs the
  // ordinary single-array path, byte-identical to materializing the same
  // workload up front.
  SyntheticWorkloadConfig wc = worldcup98_light_config(7);
  wc.file_count = 60;
  wc.request_count = 2'000;
  SystemConfig config;
  config.sim.disk_count = 4;
  const SystemReport streamed = SimulationSession(config)
                                    .with_workload(wc)
                                    .with_policy("read")
                                    .run();
  const SyntheticWorkload workload = generate_workload(wc);
  const SystemReport materialized = SimulationSession(config)
                                        .with_workload(workload)
                                        .with_policy("read")
                                        .run();
  EXPECT_EQ(streamed.sim.total_energy.value(),
            materialized.sim.total_energy.value());
  EXPECT_EQ(streamed.sim.response_time.mean(),
            materialized.sim.response_time.mean());
}

// -------------------------------------------------------------- scenario

constexpr const char* kFleetScenario = R"(
[scenario]
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

std::string scenario_csv(std::string text, unsigned fleet_threads) {
  ScenarioSpec spec = parse_scenario(text, "test");
  spec.fleet.threads = fleet_threads;
  const ScenarioResult result = run_scenario(spec);
  std::ostringstream out;
  write_scenario_csv(result, out);
  return out.str();
}

TEST(FleetScenario, CsvByteIdenticalAcrossThreadCounts) {
  const std::string one = scenario_csv(kFleetScenario, 1);
  const std::string many = scenario_csv(kFleetScenario, 3);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, many);
  // The disks column reports the fleet total.
  EXPECT_NE(one.find(",16,"), std::string::npos);
}

TEST(FleetScenario, ComposesWithFaultsDeterministically) {
  std::string text = kFleetScenario;
  text +=
      "\n[fault]\n"
      "seed = 7\n"
      "afr = 0.08\n"
      "rate_scale = 0,200000\n"
      "mttr = 60\n";
  const std::string one = scenario_csv(text, 1);
  const std::string many = scenario_csv(text, 3);
  EXPECT_EQ(one, many);
  // The widened fault schema must survive the fleet path.
  EXPECT_NE(one.find("rate_scale"), std::string::npos);
}

// [control] composes with [fleet]: every shard runs its own controller
// and admission window, and the cell reports shard-summed counters.
TEST(FleetScenario, ComposesWithControl) {
  std::string text = kFleetScenario;
  // Epochs short enough for several control updates per shard, and an
  // admission window tight enough that bursts shed.
  const std::size_t epoch = text.find("epoch = 300");
  ASSERT_NE(epoch, std::string::npos);
  text.replace(epoch, 11, "epoch = 20");
  text +=
      "\n[control]\n"
      "target_rt_ms = 25\n"
      "admit_window = 0.05\n";
  // kFleetScenario runs its shards at [fleet] threads = 1.
  const ScenarioResult result = run_scenario(parse_scenario(text, "test"));
  EXPECT_TRUE(result.controlled);
  ASSERT_EQ(result.cells.size(), 1u);
  ASSERT_TRUE(result.cells[0].control.has_value());
  EXPECT_GT(result.cells[0].control->updates, 0u);
  EXPECT_GT(result.cells[0].control->shed_requests, 0u);

  std::ostringstream one;
  write_scenario_csv(result, one);
  EXPECT_EQ(one.str(), scenario_csv(text, 3));
  EXPECT_NE(one.str().find(",control_updates,control_shed,control_h_scaled,"
                           "control_hot_grows,control_hot_shrinks,"
                           "control_epoch_scaled\n"),
            std::string::npos);
}

TEST(FleetControl, ShardsConserveRequests) {
  const auto counter = [](const SimResult& r, const char* name) {
    const auto it = r.counters.find(name);
    return it == r.counters.end() ? std::uint64_t{0} : it->second;
  };
  const auto controlled = [](unsigned threads) {
    FleetConfig fleet = small_fleet(8, threads);
    // Short epochs give every shard several control updates, and the
    // admission window is tight enough that each day's bursts shed.
    fleet.shard.epoch = Seconds{20.0};
    fleet.shard.control.enabled = true;
    fleet.shard.control.target_rt_ms = 25.0;
    fleet.shard.control.admit_window_s = 0.05;
    return fleet;
  };
  const FleetConfig fleet = controlled(1);
  const FleetResult serial = run_fleet(fleet);
  ASSERT_EQ(serial.shards.size(), 8u);
  std::uint64_t shed_total = 0;
  for (std::uint32_t s = 0; s < fleet.shards; ++s) {
    const SimResult& shard = serial.shards[s];
    const std::uint64_t shed = counter(shard, "control.shed_requests");
    shed_total += shed;
    // Served + shed + lost == produced, shard by shard.
    EXPECT_EQ(shard.user_requests + shed + counter(shard, "sim.requests_lost"),
              fleet_shard_workload(fleet, s).request_count)
        << "shard " << s;
  }
  EXPECT_GT(shed_total, 0u);
  EXPECT_EQ(counter(serial.merged, "control.shed_requests"), shed_total);

  const FleetResult parallel = run_fleet(controlled(4));
  expect_identical(serial.merged, parallel.merged);
}

TEST(FleetScenario, RejectsNonSyntheticWorkloads) {
  const std::string text =
      "[scenario]\nname = bad\n"
      "[system]\ndisks = 4\n"
      "[fleet]\nshards = 2\n"
      "[workload t]\nkind = trace\nspec = csv:/dev/null\n"
      "[policy read]\n";
  EXPECT_THROW((void)parse_scenario(text, "test"), std::invalid_argument);
}

// ------------------------------------------------------- reservoir merge

TEST(ReservoirMerge, DeterministicAndExactUnderCapacity) {
  ReservoirSample a(16, 1);
  ReservoirSample b(16, 1);
  for (int i = 0; i < 8; ++i) a.add(i);
  for (int i = 8; i < 12; ++i) b.add(i);
  a.merge(b);
  EXPECT_EQ(a.seen(), 12u);
  EXPECT_EQ(a.size(), 12u);
  EXPECT_EQ(a.quantile(1.0), 11.0);

  // Same inputs, same fold order => identical retained sample.
  ReservoirSample c(4, 1);
  ReservoirSample d(4, 1);
  for (int i = 0; i < 100; ++i) c.add(i);
  for (int i = 100; i < 200; ++i) d.add(i);
  ReservoirSample m1(4, 1);
  m1.merge(c);
  m1.merge(d);
  ReservoirSample m2(4, 1);
  m2.merge(c);
  m2.merge(d);
  EXPECT_EQ(m1.seen(), m2.seen());
  EXPECT_EQ(m1.seen(), 200u);
  for (double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    EXPECT_EQ(m1.quantile(q), m2.quantile(q));
  }
}

}  // namespace
}  // namespace pr
