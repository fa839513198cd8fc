// Seed-layout golden: pins the byte-exact observable output of the
// simulator as it was BEFORE the SoA hot-state refactor (commit 1701bae,
// AoS `Disk` objects owning their own ledgers), so the `Disk`-as-facade
// layout (disk/disk_soa.h) is provably a drop-in. The constants below are
// FNV-1a-64 hashes of (a) the full JSONL observer stream and (b) a
// canonical full-precision dump of the SimResult, captured by running this
// very harness at the seed commit. Any change to arithmetic order, event
// interleaving, or counter content shows up as a hash mismatch.
//
// The hashes are x86-64 baseline-ISA artifacts (see golden_hash.h), so the
// comparison is gated on PR_GOLDEN_HASHES. The structural checks — the
// workload really spins disks down, migrates and hits the MAID cache —
// run everywhere.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "golden_hash.h"
#include "obs/jsonl_writer.h"
#include "policy/maid_policy.h"
#include "policy/pdc_policy.h"
#include "policy/read_policy.h"
#include "sim/array_sim.h"
#include "util/fmt.h"
#include "workload/synthetic.h"

namespace pr {
namespace {

std::string f(double v) { return format_double(v, 17); }

/// Canonical full-precision dump of everything a SimResult reports. The
/// exact field order is part of the golden — do not reorder.
std::string dump_result(const SimResult& r) {
  std::ostringstream out;
  out << "policy=" << r.policy_name << "\nuser_requests=" << r.user_requests
      << "\nmigrations=" << r.migrations
      << "\nmigration_bytes=" << r.migration_bytes
      << "\ntotal_transitions=" << r.total_transitions
      << "\nmax_transitions_per_day=" << f(r.max_transitions_per_day)
      << "\ntotal_energy=" << f(r.total_energy.value())
      << "\nhorizon=" << f(r.horizon.value())
      << "\nrt_count=" << r.response_time.count()
      << "\nrt_mean=" << f(r.response_time.mean())
      << "\nrt_min=" << f(r.response_time.min())
      << "\nrt_max=" << f(r.response_time.max())
      << "\nrt_sum=" << f(r.response_time.sum()) << "\n";
  for (std::size_t d = 0; d < r.ledgers.size(); ++d) {
    const DiskLedger& l = r.ledgers[d];
    out << "disk" << d << "=" << f(l.busy_time.value()) << ","
        << f(l.idle_time.value()) << "," << f(l.transition_time.value())
        << "," << f(l.time_at_low.value()) << "," << f(l.time_at_high.value())
        << "," << f(l.energy.value()) << "," << l.transitions << ","
        << l.transitions_up << "," << l.max_transitions_in_day << ","
        << l.requests << "," << l.bytes_served << "," << l.internal_ops << ","
        << l.internal_bytes << "\n";
  }
  out << golden::dump_counters(r.counters);
  return out.str();
}

struct GoldenRun {
  SimResult result;
  std::string jsonl;
};

template <typename PolicyT>
GoldenRun run_golden() {
  SyntheticWorkloadConfig wc;
  wc.file_count = 400;
  wc.request_count = 8000;
  wc.mean_interarrival = Seconds{0.35};
  wc.seed = 20260805;
  const SyntheticWorkload w = generate_workload(wc);

  SimConfig sc;
  sc.disk_params = two_speed_cheetah();
  sc.disk_count = 8;
  sc.epoch = Seconds{600.0};
  std::ostringstream jsonl;
  JsonlTraceWriter writer(jsonl);
  PolicyT policy;
  GoldenRun run;
  run.result = run_simulation(sc, w.files, w.trace, policy, &writer);
  run.jsonl = jsonl.str();
  return run;
}

void expect_hashes(const GoldenRun& run, std::uint64_t result,
                   std::uint64_t jsonl) {
#if PR_GOLDEN_HASHES
  EXPECT_EQ(golden::fnv1a(dump_result(run.result)), result)
      << "result dump hash drifted";
  EXPECT_EQ(golden::fnv1a(run.jsonl), jsonl) << "JSONL stream hash drifted";
#else
  (void)run;
  (void)result;
  (void)jsonl;
#endif
}

// Captured at the seed commit (pre-SoA AoS Disk layout); see file comment.
TEST(SeedLayoutGolden, ReadPolicyMatchesSeedBytes) {
  const GoldenRun run = run_golden<ReadPolicy>();
  EXPECT_GT(run.result.counters.at("sim.spin_downs"), 0u);
  EXPECT_GT(run.result.migrations, 0u);
  EXPECT_EQ(run.result.counters.at("sim.idle_checks_stale"), 0u);
  expect_hashes(run, 18404763294783990677ULL, 17343312274707228058ULL);
}

TEST(SeedLayoutGolden, MaidPolicyMatchesSeedBytes) {
  const GoldenRun run = run_golden<MaidPolicy>();
  EXPECT_GT(run.result.counters.at("sim.spin_downs"), 0u);
  EXPECT_GT(run.result.counters.at("maid.cache_hit"), 0u);
  EXPECT_EQ(run.result.counters.at("sim.idle_checks_stale"), 0u);
  expect_hashes(run, 4712958847698992063ULL, 7344537821866690566ULL);
}

TEST(SeedLayoutGolden, PdcPolicyMatchesSeedBytes) {
  const GoldenRun run = run_golden<PdcPolicy>();
  EXPECT_GT(run.result.counters.at("sim.spin_downs"), 0u);
  EXPECT_GT(run.result.migrations, 0u);
  EXPECT_EQ(run.result.counters.at("sim.idle_checks_stale"), 0u);
  expect_hashes(run, 3390955525029948489ULL, 6470625918837204041ULL);
}

}  // namespace
}  // namespace pr
