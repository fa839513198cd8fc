#include "exp/scenario_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/registry.h"
#include "core/session.h"
#include "disk/geometry.h"
#include "fault/degradation_analyzer.h"
#include "fault/fault_plan.h"
#include "press/afr_agreement.h"
#include "press/mttdl_agreement.h"
#include "sim/fleet_sim.h"
#include "trace/stream_reader.h"
#include "trace/trace_reader.h"
#include "trace/trace_stats.h"
#include "util/contracts.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace pr {

namespace {

/// One generated (workload, load, seed) variant, shared by every
/// policy/epoch/disks cell that references it and released after the last
/// of them (see run_scenario).
struct WorkloadVariant {
  double load = 1.0;
  std::uint64_t seed = 0;
  FileSet files;
  /// Materialized requests; empty for kind == "source" (cells re-open the
  /// stream instead) and once the variant's last cell has run.
  Trace trace;
  /// Last arrival (fault-plan horizon) — measured during the stats pass
  /// for streaming workloads, so it is valid even when `trace` is empty.
  Seconds horizon{0.0};
  /// Fleet mode only: the resolved synthetic config (files/trace stay
  /// empty — every shard synthesizes its own stream from this template).
  SyntheticWorkloadConfig synth;
};

StreamReaderOptions stream_options(const ScenarioWorkload& w) {
  StreamReaderOptions options;
  if (w.buffer) options.buffer_bytes = *w.buffer;
  return options;
}

struct VariantKey {
  std::size_t workload_idx;
  double load;       // 0 = preset default (resolved during generation)
  bool has_load;
  std::uint64_t seed;
};

constexpr std::uint64_t mix_plan_seed(std::uint64_t base,
                                      std::uint64_t workload_seed,
                                      std::uint64_t scale_idx,
                                      std::uint64_t disks) {
  std::uint64_t s = splitmix64(base);
  s = splitmix64(s ^ workload_seed);
  s = splitmix64(s ^ (scale_idx << 32 | disks));
  return s;
}

/// Merge the scripted kill_disk/kill_at fail-stop events into a hazard
/// plan (from_events re-sorts, so ordering vs the drawn events is exact).
FaultPlan with_kills(FaultPlan plan, const ScenarioFault& fault) {
  if (fault.kill_disks.empty()) return plan;
  std::vector<FaultEvent> events = plan.events();
  for (std::size_t i = 0; i < fault.kill_disks.size(); ++i) {
    FaultEvent e;
    e.time = Seconds{fault.kill_at_s[i]};
    e.disk = static_cast<DiskId>(fault.kill_disks[i]);
    e.kind = FaultKind::kFail;
    events.push_back(e);
  }
  return FaultPlan::from_events(std::move(events));
}

std::uint64_t counter_of(const SimResult& sim, const char* name) {
  const auto it = sim.counters.find(name);
  return it == sim.counters.end() ? 0 : it->second;
}

/// Fold the run's redundancy counters, the folded mean rebuild time and
/// the MTTDL loop closure into a ScenarioRedundancyCell. `arrays` ×
/// `horizon` is the per-array exposure
/// (fleet cells pass shards / the shard horizon); rates are normalized per
/// protection domain — each RAID-5 group, or the whole array under
/// declustered parity where any two overlapping failures collide.
ScenarioRedundancyCell score_redundancy_cell(const ScenarioSpec& spec,
                                             const SimResult& sim,
                                             double injected_afr,
                                             Seconds mean_rebuild,
                                             std::size_t array_disks,
                                             std::size_t arrays,
                                             Seconds horizon) {
  ScenarioRedundancyCell r;
  r.scheme = spec.redundancy.scheme;
  r.reconstructed_requests = counter_of(sim, "sim.requests_reconstructed");
  r.data_loss_events = counter_of(sim, "redundancy.data_loss_events");
  r.rebuilds_started = counter_of(sim, "redundancy.rebuilds_started");
  r.rebuilds_completed = counter_of(sim, "redundancy.rebuilds_completed");
  // Millisecond resolution, as DegradationAnalyzer::merge_into reports it.
  r.mean_rebuild_s = std::round(mean_rebuild.value() * 1e3) / 1e3;

  const RedundancyKind kind = scenario_redundancy_kind(spec.redundancy);
  const std::size_t group =
      spec.redundancy.group == 0 ? array_disks : spec.redundancy.group;
  MttdlInputs inputs;
  inputs.mttr = Seconds{spec.fault.mttr_s};
  inputs.disk_afr = injected_afr;
  std::size_t domains_per_array = 1;
  if (kind == RedundancyKind::kRaid5) {
    inputs.disks = group;
    domains_per_array = array_disks / group;
  } else {
    inputs.disks = array_disks;  // declustered: one whole-array domain
  }
  const MttdlAgreement agreement = score_mttdl_agreement(
      RaidLevel::kRaid5, inputs, r.data_loss_events,
      arrays * domains_per_array, horizon);
  r.predicted_mttdl_hours = agreement.predicted_mttdl_hours;
  r.predicted_losses_per_year = agreement.predicted_losses_per_year;
  r.observed_losses_per_year = agreement.observed_losses_per_year;
  r.observed_over_predicted = agreement.observed_over_predicted;
  return r;
}

/// One cell of the grid: its position on every sweep axis.
struct CellSpec {
  std::size_t policy_idx;
  std::size_t variant_idx;
  double epoch_s;
  std::size_t disks;
  std::size_t scale_idx;
};

/// Run and score one cell. A cell is one array, or `[fleet] shards`
/// independent arrays of `disks` each (sim/fleet_sim.h) merged in shard
/// order; both shapes share the SimConfig, the per-array hazard plans and
/// DegradationAnalyzers, the fault fold and the scoring below — only the
/// run itself differs.
ScenarioCell run_cell(const ScenarioSpec& spec,
                      const ScenarioWorkload& workload,
                      const WorkloadVariant& variant,
                      const PolicyFactory& factory, const CellSpec& cs) {
  const ScenarioPolicy& policy_spec = spec.policies[cs.policy_idx];
  ScenarioCell cell;
  cell.policy =
      policy_spec.label.empty() ? policy_spec.name : policy_spec.label;
  cell.workload = workload.name;
  cell.load = variant.load;
  cell.seed = variant.seed;
  cell.epoch_s = cs.epoch_s;
  cell.disks = cs.disks;

  SystemConfig config;
  config.sim.disk_count = cs.disks;
  config.sim.epoch = Seconds{cs.epoch_s};
  if (spec.positioned) config.sim.seek_curve = cheetah_seek_curve();
  if (spec.redundancy.enabled) {
    config.sim.redundancy = scenario_redundancy_config(spec.redundancy);
  }
  if (spec.control.enabled) {
    config.sim.control = spec.control.config;
    config.sim.control.enabled = true;
  }

  // The per-array exposure: a single array's trace span, or — since hazard
  // plans need a horizon before any shard synthesizes a request — the
  // expected arrival span of the widest shard (shard 0 carries any
  // remainder request).
  std::size_t arrays = 1;
  Seconds horizon = variant.horizon;
  FleetConfig fleet;
  if (spec.fleet.enabled) {
    fleet.shard = config.sim;
    fleet.shards = spec.fleet.shards;
    fleet.threads = spec.fleet.threads;
    fleet.workload = variant.synth;
    fleet.base_seed = variant.seed;
    fleet.policy = factory;
    arrays = fleet.shards;
    cell.disks = fleet_disk_count(fleet.shards,
                                  static_cast<std::uint32_t>(cs.disks));
    const SyntheticWorkloadConfig shard0 = fleet_shard_workload(fleet, 0);
    horizon = Seconds{shard0.mean_interarrival.value() /
                      shard0.load_factor *
                      static_cast<double>(shard0.request_count)};
  }

  // One deterministic hazard plan and analyzer per array, built once: a
  // single array draws from the cell's plan seed, shard s from
  // fleet_shard_seed(cell seed, s). Scripted kills strike every array
  // identically; a 0 rate scale yields empty plans, which run
  // byte-identical to the fault-free path.
  const double rate_scale =
      spec.fault.enabled ? spec.fault.rate_scales[cs.scale_idx] : 0.0;
  std::vector<FaultPlan> plans;
  std::vector<DegradationAnalyzer> analyzers(spec.fault.enabled ? arrays
                                                                 : 0);
  if (spec.fault.enabled) {
    const std::uint64_t cell_seed =
        mix_plan_seed(spec.fault.seed, variant.seed, cs.scale_idx, cs.disks);
    FaultHazard hazard;
    hazard.afr = spec.fault.afr;
    hazard.rate_scale = rate_scale;
    hazard.mttr = Seconds{spec.fault.mttr_s};
    hazard.horizon = horizon;
    plans.reserve(arrays);
    for (std::size_t a = 0; a < arrays; ++a) {
      hazard.seed =
          spec.fleet.enabled ? fleet_shard_seed(cell_seed, a) : cell_seed;
      plans.push_back(
          with_kills(FaultPlan::from_hazard(hazard, cs.disks), spec.fault));
    }
  }

  if (spec.fleet.enabled) {
    if (spec.fault.enabled) {
      fleet.shard_faults = [&plans](std::uint32_t shard) {
        return plans[shard];
      };
      fleet.shard_observer = [&analyzers](std::uint32_t shard) {
        // ObserverList forwards to the caller-owned analyzer, which
        // outlives the shard run so it can fold after the fleet completes.
        auto list = std::make_unique<ObserverList>();
        list->add(analyzers[shard]);
        return list;
      };
    }
    cell.report =
        score(PressModel{config.press}, std::move(run_fleet(fleet).merged));
  } else {
    // Streaming workloads re-open the source for each cell; sources are
    // single-pass, so a shared one could not serve the whole grid.
    std::unique_ptr<RequestSource> source;
    SimulationSession session(config);
    if (workload.kind == "source") {
      source = trace::open(workload.path, stream_options(workload));
      session.with_source(variant.files, *source);
    } else {
      session.with_workload(variant.files, variant.trace);
    }
    session.with_policy(factory());
    if (spec.fault.enabled) {
      session.with_observer(analyzers.front()).with_faults(plans.front());
    }
    cell.report = session.run();
  }

  // A fleet folds its shards in shard order; a single array keeps its own
  // analyzer, per-disk split included.
  DegradationAnalyzer shard_fold;
  const DegradationAnalyzer* analyzer = nullptr;
  if (spec.fault.enabled) {
    if (spec.fleet.enabled) {
      for (const DegradationAnalyzer& a : analyzers) shard_fold.merge(a);
      analyzer = &shard_fold;
    } else {
      analyzer = &analyzers.front();
    }
    // Only a non-empty plan adds the fault.* duration counters —
    // rate-scale-0 cells must stay byte-identical to fault-free runs (the
    // same rule the simulator applies to its fault counters).
    if (std::any_of(plans.begin(), plans.end(),
                    [](const FaultPlan& p) { return !p.empty(); })) {
      analyzer->merge_into(cell.report.sim);
    }

    ScenarioFaultCell fault;
    fault.rate_scale = rate_scale;
    fault.injected_afr = spec.fault.afr * rate_scale;
    fault.failures = analyzer->failures();
    fault.lost_requests = analyzer->lost_requests();
    fault.degraded_requests =
        analyzer->redirected_requests() + analyzer->slowed_requests();
    fault.downtime_s = analyzer->total_downtime().value();
    fault.degraded_window_s = analyzer->degraded_window().value();
    fault.mean_recovery_s = analyzer->mean_recovery_time().value();
    const AfrAgreement agreement =
        score_afr_agreement(cell.report.array_afr, fault.injected_afr,
                            fault.failures, cell.disks, horizon);
    fault.observed_afr = agreement.observed_afr;
    fault.press_over_injected = agreement.predicted_over_injected;
    fault.press_over_observed = agreement.predicted_over_observed;
    cell.fault = fault;
  }
  if (spec.redundancy.enabled) {
    cell.redundancy = score_redundancy_cell(
        spec, cell.report.sim, spec.fault.afr * rate_scale,
        analyzer != nullptr ? analyzer->mean_rebuild_time() : Seconds{0.0},
        cs.disks, arrays, horizon);
  }
  if (spec.control.enabled) {
    // Fleet cells report shard-summed counters, like every fleet counter.
    const SimResult& sim = cell.report.sim;
    ScenarioControlCell control;
    control.updates = counter_of(sim, "control.updates");
    control.shed_requests = counter_of(sim, "control.shed_requests");
    control.h_scaled = counter_of(sim, "control.h_scaled");
    control.hot_grows = counter_of(sim, "control.hot_grows");
    control.hot_shrinks = counter_of(sim, "control.hot_shrinks");
    control.epoch_scaled = counter_of(sim, "control.epoch_scaled");
    cell.control = control;
  }
  return cell;
}

/// Generate one variant: materialize a synthetic day or a `kind = trace`
/// file, measure a `kind = source` stream without keeping it, or — in fleet
/// mode — only resolve the synthetic template the shards pull from.
WorkloadVariant generate_variant(const ScenarioSpec& spec,
                                 const ScenarioWorkload& w,
                                 const VariantKey& key) {
  WorkloadVariant v;
  v.seed = key.seed;
  if (w.kind == "trace") {
    v.trace = trace::open_trace(w.path);
    v.files = FileSet::from_trace_stats(compute_trace_stats(v.trace));
    v.load = 1.0;
    v.horizon = v.trace.empty() ? Seconds{0.0}
                                : v.trace.requests.back().arrival;
  } else if (w.kind == "source") {
    // Streaming stats pass: measure the file universe and the fault
    // horizon without ever materializing the trace.
    auto probe = trace::open(w.path, stream_options(w));
    TraceStatsAccumulator stats;
    Request r;
    while (probe->next(r)) stats.add(r);
    v.files = FileSet::from_trace_stats(stats.finalize());
    v.load = 1.0;
    v.horizon = stats.last_arrival();
  } else {
    SyntheticWorkloadConfig config = preset_workload_config(w.preset, key.seed);
    if (w.files) config.file_count = *w.files;
    if (w.requests) config.request_count = *w.requests;
    if (w.zipf_alpha) config.zipf_alpha = *w.zipf_alpha;
    if (w.burstiness) config.burstiness = *w.burstiness;
    if (w.diurnal_depth) config.diurnal_depth = *w.diurnal_depth;
    if (key.has_load) config.load_factor = key.load;
    v.load = config.load_factor;
    if (spec.fleet.enabled) {
      // Fleet cells never materialize the fleet-total trace; shards
      // synthesize their slices on pull inside run_fleet.
      v.synth = config;
    } else {
      auto workload = generate_workload(config);
      v.files = std::move(workload.files);
      v.trace = std::move(workload.trace);
      v.horizon = v.trace.empty() ? Seconds{0.0}
                                  : v.trace.requests.back().arrival;
    }
  }
  return v;
}

/// A variant's lifetime inside run_scenario: generated exactly once by
/// whichever task reaches it first (a failure is kept and rethrown to
/// every reader), read by its cells, and emptied by the last of them.
struct VariantSlot {
  std::once_flag generated;
  std::exception_ptr error;
  WorkloadVariant variant;
  std::atomic<std::size_t> cells_left{0};

  const WorkloadVariant& get(const ScenarioSpec& spec,
                             const ScenarioWorkload& w,
                             const VariantKey& key) {
    std::call_once(generated, [&] {
      try {
        variant = generate_variant(spec, w, key);
      } catch (...) {
        error = std::current_exception();
      }
    });
    if (error) std::rethrow_exception(error);
    return variant;
  }

  /// Called once per finished cell; the last one frees the requests and
  /// the file universe (the horizon, load and seed stay readable).
  void cell_done() {
    if (cells_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      variant.trace = Trace{};
      variant.files = FileSet{};
    }
  }
};

}  // namespace

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  validate_scenario(spec);

  // ---- resolve policy factories first (validates names + params before
  // any workload is generated) -----------------------------------------
  std::vector<PolicyFactory> factories;
  factories.reserve(spec.policies.size());
  for (const ScenarioPolicy& p : spec.policies) {
    factories.push_back(policies::make(p.name, p.params));
  }

  // Default workload when the spec names none: the paper's light day.
  std::vector<ScenarioWorkload> workloads = spec.workloads;
  if (workloads.empty()) workloads.push_back(ScenarioWorkload{});

  // ---- expand the (workload, load, seed) axis -----------------------
  std::vector<VariantKey> variant_keys;
  for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
    const ScenarioWorkload& w = workloads[wi];
    if (w.kind == "trace" || w.kind == "source") {
      // A fixed trace has no load/seed degrees of freedom.
      variant_keys.push_back({wi, 1.0, false, 0});
      continue;
    }
    if (w.loads.empty()) {
      for (const std::uint64_t seed : spec.seeds) {
        variant_keys.push_back({wi, 0.0, false, seed});
      }
    } else {
      for (const double load : w.loads) {
        for (const std::uint64_t seed : spec.seeds) {
          variant_keys.push_back({wi, load, true, seed});
        }
      }
    }
  }

  // ---- enumerate cells in spec order: policy-major, then workload/
  // load/seed (variant order), then epoch, then disks, then fault rate
  // scale (a degenerate single-pass axis when no [fault] section) -------
  const std::size_t scale_count =
      spec.fault.enabled ? spec.fault.rate_scales.size() : 1;
  const std::size_t per_variant =
      spec.epochs.size() * spec.disks.size() * scale_count;
  std::vector<CellSpec> cell_specs;
  cell_specs.reserve(spec.policies.size() * variant_keys.size() * per_variant);
  for (std::size_t pi = 0; pi < spec.policies.size(); ++pi) {
    for (std::size_t vi = 0; vi < variant_keys.size(); ++vi) {
      for (const double epoch_s : spec.epochs) {
        for (const std::size_t disks : spec.disks) {
          for (std::size_t si = 0; si < scale_count; ++si) {
            cell_specs.push_back({pi, vi, epoch_s, disks, si});
          }
        }
      }
    }
  }

  // ---- run variant-major, one variant of lookahead ---------------------
  // The pool's queue is FIFO, so the task list is the start order:
  // generate 0, generate 1, cells of 0, generate 2, cells of 1, ...
  // Each variant is generated once, one variant ahead of its cells, and
  // released by its last cell, so the grid holds a few variants (about one
  // per worker) instead of all of them. A cell that reaches its variant
  // before the generator finishes waits on that running generator, which
  // was dequeued before the cell; no task waits on one still queued.
  // result.cells keeps the spec order above.
  struct Task {
    bool generate;
    std::size_t index;  // variant index, or cell index into cell_specs
  };
  const std::size_t variant_count = variant_keys.size();
  std::vector<Task> tasks;
  tasks.reserve(variant_count + cell_specs.size());
  const auto push_cells = [&](std::size_t vi) {
    for (std::size_t pi = 0; pi < spec.policies.size(); ++pi) {
      const std::size_t first = (pi * variant_count + vi) * per_variant;
      for (std::size_t k = 0; k < per_variant; ++k) {
        tasks.push_back({false, first + k});
      }
    }
  };
  for (std::size_t vi = 0; vi < variant_count; ++vi) {
    tasks.push_back({true, vi});
    if (vi > 0) push_cells(vi - 1);
  }
  if (variant_count > 0) push_cells(variant_count - 1);

  std::vector<VariantSlot> slots(variant_count);
  for (VariantSlot& slot : slots) {
    slot.cells_left.store(spec.policies.size() * per_variant,
                          std::memory_order_relaxed);
  }

  ScenarioResult result;
  result.scenario = spec.name;
  result.faulted = spec.fault.enabled;
  result.redundant = spec.redundancy.enabled;
  result.controlled = spec.control.enabled;
  result.cells.resize(cell_specs.size());
  // A failed task skips every task queued after it, but not those before
  // it, so the error the pool rethrows (the first in task order) does not
  // depend on timing.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::atomic<std::size_t> first_failed{kNone};
  ThreadPool pool(spec.threads);
  pool.parallel_for(tasks.size(), [&](std::size_t t) {
    if (t > first_failed.load(std::memory_order_relaxed)) return;
    try {
      const Task& task = tasks[t];
      const std::size_t vi =
          task.generate ? task.index : cell_specs[task.index].variant_idx;
      const VariantKey& key = variant_keys[vi];
      const ScenarioWorkload& workload = workloads[key.workload_idx];
      const WorkloadVariant& variant = slots[vi].get(spec, workload, key);
      if (task.generate) return;
      const CellSpec& cs = cell_specs[task.index];
      result.cells[task.index] =
          run_cell(spec, workload, variant, factories[cs.policy_idx], cs);
      slots[vi].cell_done();
    } catch (...) {
      std::size_t seen = first_failed.load(std::memory_order_relaxed);
      while (t < seen && !first_failed.compare_exchange_weak(
                             seen, t, std::memory_order_relaxed)) {
      }
      throw;
    }
  });
#if PR_CONTRACTS_ENABLED
  // Every cell slot must have been filled by exactly the worker that owns
  // its index — an empty policy label means a task died without writing.
  for (const ScenarioCell& c : result.cells) {
    PR_INVARIANT(!c.policy.empty(),
                 "run_scenario: cell left unfilled by its worker");
  }
#endif
  return result;
}

}  // namespace pr
