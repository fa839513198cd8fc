#include "sim/fleet_sim.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/contracts.h"
#include "util/thread_pool.h"

namespace pr {

namespace {

/// Fold one shard's result into the fleet accumulator. Strictly
/// sequential in shard order — Welford merges and the reservoir fold are
/// order-sensitive, and shard order is the byte contract.
void fold_shard(SimResult& fleet, const SimResult& shard) {
  fleet.response_time.merge(shard.response_time);
  fleet.response_time_sample.merge(shard.response_time_sample);
  fleet.total_energy += shard.total_energy;
  fleet.horizon = std::max(fleet.horizon, shard.horizon);
  fleet.user_requests += shard.user_requests;
  fleet.migrations += shard.migrations;
  fleet.migration_bytes += shard.migration_bytes;
  fleet.total_transitions += shard.total_transitions;
  fleet.max_transitions_per_day =
      std::max(fleet.max_transitions_per_day, shard.max_transitions_per_day);
  fleet.ledgers.insert(fleet.ledgers.end(), shard.ledgers.begin(),
                       shard.ledgers.end());
  fleet.telemetry.insert(fleet.telemetry.end(), shard.telemetry.begin(),
                         shard.telemetry.end());
  for (const auto& [name, value] : shard.counters) {
    fleet.counters[name] += value;
  }
}

void validate_fleet(const FleetConfig& config) {
  if (config.shard.disk_count >
      std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("run_fleet: disks_per_shard exceeds DiskId");
  }
  // Throws on zero factors / DiskId overflow.
  (void)fleet_disk_count(config.shards,
                         static_cast<std::uint32_t>(config.shard.disk_count));
  if (!config.policy) {
    throw std::logic_error("run_fleet: no policy factory configured");
  }
}

SimResult run_shard(const FleetConfig& config, std::uint32_t shard) {
  auto policy = config.policy();
  FaultPlan plan;
  const FaultPlan* faults = nullptr;
  if (config.shard_faults) {
    plan = config.shard_faults(shard);
    faults = &plan;
  }
  std::unique_ptr<SimObserver> observer;
  if (config.shard_observer) observer = config.shard_observer(shard);
  SyntheticSource source(fleet_shard_workload(config, shard));
  return run_simulation(config.shard, source.files(), source, *policy,
                        observer.get(), faults);
}

FleetResult merge_results(const FleetConfig& config,
                          std::vector<SimResult>&& results) {
  FleetResult fleet;
  fleet.shard_count = config.shards;
  fleet.disks_per_shard = static_cast<std::uint32_t>(config.shard.disk_count);
  fleet.shards = std::move(results);
  fleet.merged.policy_name = fleet.shards.front().policy_name;
  for (const SimResult& shard : fleet.shards) {
    fold_shard(fleet.merged, shard);
  }
  PR_INVARIANT(fleet.merged.ledgers.size() == fleet.fleet_disks(),
               "run_fleet: merged ledger count != fleet disk count");
  return fleet;
}

}  // namespace

std::uint32_t fleet_disk_count(std::uint32_t shards,
                               std::uint32_t disks_per_shard) {
  if (shards == 0 || disks_per_shard == 0) {
    throw std::invalid_argument("fleet_disk_count: zero shards or disks");
  }
  const std::uint64_t total =
      static_cast<std::uint64_t>(shards) * disks_per_shard;
  if (total >= kInvalidDisk) {
    throw std::invalid_argument(
        "fleet_disk_count: " + std::to_string(total) +
        " disks overflows the 32-bit DiskId space");
  }
  return static_cast<std::uint32_t>(total);
}

SyntheticWorkloadConfig fleet_shard_workload(const FleetConfig& config,
                                             std::uint32_t shard) {
  SyntheticWorkloadConfig wc = config.workload;
  const std::size_t base = config.workload.request_count / config.shards;
  const std::size_t extra =
      shard < config.workload.request_count % config.shards ? 1 : 0;
  wc.request_count = base + extra;
  wc.seed = fleet_shard_seed(config.base_seed, shard);
  return wc;
}

FleetResult run_fleet(const FleetConfig& config) {
  validate_fleet(config);
  // Fan shards across the pool (threads != 1) or run them inline
  // (threads == 1); indexed writes make completion order irrelevant.
  std::vector<SimResult> results(config.shards);
  if (config.threads == 1) {
    for (std::uint32_t s = 0; s < config.shards; ++s) {
      results[s] = run_shard(config, s);
    }
  } else {
    ThreadPool pool(config.threads);
    pool.parallel_for(config.shards, [&](std::size_t s) {
      results[s] = run_shard(config, static_cast<std::uint32_t>(s));
    });
  }
  return merge_results(config, std::move(results));
}

}  // namespace pr
