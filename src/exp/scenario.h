// scenario.h — declarative experiment scenarios: what the paper's Fig. 7
// grid looks like as *data*. A ScenarioSpec names the sweep axes (disks,
// epoch, workload load, seeds), the workloads (synthetic presets with
// overrides, or a CSV trace) and the policies (registry names plus
// per-policy ParamMap knobs); the engine (scenario_engine.h) expands it
// into cells and fans them across the thread pool.
//
// Specs can be built in code (the migrated benches do) or parsed from a
// small INI-lite text format (`run_experiment --config scenarios/x.ini`;
// grammar documented in EXPERIMENTS.md "Scenario files"):
//
//   [scenario]
//   name = fig7_overall
//   threads = 0                 # 0 = hardware concurrency
//   seeds = 42                  # comma list = sweep axis
//
//   [system]
//   disks = 6,8,10,12,14,16     # comma list = sweep axis
//   epoch = 3600                # seconds; comma list = sweep axis
//   positioned = false          # seek-curve positional I/O
//
//   [workload light]            # repeatable; name defaults to "default"
//   kind = synthetic            # "trace" (+ path) or "source" (+ spec)
//   preset = wc98-light         # wc98-light|wc98-heavy|proxy|ftp|email
//   requests = 80000            # overrides of the preset
//   files = 1000
//   load = 1.0                  # comma list = sweep axis
//
//   [source replay]             # sugar for [workload replay] kind=source:
//   spec = jsonl:day66.jl       # trace::open spec ([format:]path)
//   buffer = 1048576            # stream buffer bound in bytes (optional)
//
//   [policy read]               # repeatable; registry names or aliases
//   label = READ                # display label (default: name as written)
//   cap = 40                    # any knob from policies::param_names()
//
//   [fault]                     # optional; presence enables injection
//   seed = 7                    # plan-generation seed
//   afr = 0.08                  # injected AFR at rate_scale = 1
//   rate_scale = 0,400,1600     # comma list = sweep axis (0 = no faults)
//   mttr = 900                  # repair time, seconds
//   kill_disk = 3               # deterministic fail-stop events merged
//   kill_at = 1800              # into every cell's plan (paired lists;
//                               # no planned recovery — the rebuild engine
//                               # or the horizon ends them)
//
//   [redundancy]                # optional; parity protection + rebuild
//   scheme = raid5              # raid5 | declustered
//   group = 4                   # stripe width (0 = whole array)
//   rebuild = true              # background rebuild engine on/off
//   rebuild_mbps = 32           # rebuild bandwidth per step stream
//   rebuild_chunk = 4194304     # bytes per rebuild step
//
//   [fleet]                     # optional; every cell becomes a fleet
//   shards = 125                # independent arrays of [system] disks each
//   threads = 1                 # workers per fleet cell (0 = hardware)
//
//   [control]                   # optional; adaptive feedback control
//   target_rt_ms = 30           # latency controller target (0 = off)
//   gain = 0.5                  # proportional gain on relative error
//   hysteresis = 0.25           # relative dead band around each target
//   persistence = 2             # same-direction epochs before acting
//   max_step = 2.0              # per-boundary H scale cap
//   h_min = 1                   # idleness-threshold clamp, seconds
//   h_max = 3600
//   energy_budget_w = 90        # hot-zone controller budget (0 = off)
//   adapt_epoch = true          # epoch-length controller on/off
//   epoch_min = 60              # epoch-length clamp, seconds
//   epoch_max = 14400
//   admit_window = 0.5          # admission (shed) window, seconds (0 = off)
//
// Comments start with '#' or ';' (whole line, or after whitespace).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "control/control_config.h"
#include "redundancy/redundancy_config.h"
#include "util/param_map.h"
#include "workload/synthetic.h"

namespace pr {

struct ScenarioWorkload {
  std::string name = "default";
  /// "synthetic" (preset + overrides), "trace" (materialize the file at
  /// `path` up front) or "source" (stream `path` as a trace::open spec
  /// through a bounded buffer, re-opened per cell; stdin is rejected
  /// because cells are re-runs).
  std::string kind = "synthetic";
  /// Synthetic preset: wc98-light | wc98-heavy | proxy | ftp | email.
  std::string preset = "wc98-light";
  /// kind == "trace"/"source": a trace::open spec, `[format:]path`.
  std::string path;
  /// kind == "source": stream buffer bound in bytes (absent = reader
  /// default).
  std::optional<std::size_t> buffer;
  // Preset overrides (absent = preset default).
  std::optional<std::size_t> files;
  std::optional<std::size_t> requests;
  std::optional<double> zipf_alpha;
  std::optional<double> burstiness;
  std::optional<double> diurnal_depth;
  /// Arrival-rate multipliers; a sweep axis. Empty = preset default.
  std::vector<double> loads;
};

struct ScenarioPolicy {
  std::string name;   ///< registry name (aliases accepted)
  std::string label;  ///< display label; empty = `name` as written
  ParamMap params;    ///< knobs; validated against policies::param_names()
};

/// Fault-injection knobs (`[fault]` section): a seeded per-disk
/// exponential hazard (fault/fault_plan.h) swept over rate_scale. The
/// section's presence enables injection; rate_scale 0 cells run the
/// byte-identical fault-free path.
struct ScenarioFault {
  bool enabled = false;
  /// Base seed for plan generation (mixed with the cell's workload seed,
  /// rate-scale index and disk count, so every cell gets its own plan).
  std::uint64_t seed = 1;
  /// Per-disk annual failure rate at rate_scale = 1.
  double afr = 0.08;
  /// Multipliers on `afr`; a sweep axis.
  std::vector<double> rate_scales = {1.0};
  /// Deterministic repair time (seconds).
  double mttr_s = 3600.0;
  /// Scripted fail-stop events merged into every cell's plan on top of
  /// the hazard draw: kill_disks[i] fails at kill_at_s[i] (paired lists).
  /// No planned recovery is scripted — with [redundancy] rebuild on, the
  /// rebuild engine recovers the disk when reconstruction finishes, which
  /// is exactly the rebuild-smoke CI shape.
  std::vector<std::size_t> kill_disks;
  std::vector<double> kill_at_s;
};

/// Parity-protection knobs (`[redundancy]` section): a config-owned
/// RedundancyScheme (redundancy/redundancy_config.h) for every cell,
/// composing with [fault] (degraded reads reconstruct instead of losing
/// requests; overlapping in-group failures count data-loss events) and
/// with [fleet] (each shard carries its own scheme + rebuild state). The
/// engine also scores the observed data-loss rate against the closed-form
/// MTTDL prediction (press/mttdl_agreement.h).
struct ScenarioRedundancy {
  bool enabled = false;
  /// "raid5" | "declustered" (redundancy/redundancy_config.h kinds).
  std::string scheme = "raid5";
  /// Stripe width / protection-group size (0 = whole array).
  std::size_t group = 0;
  /// Run the background rebuild engine after a failure.
  bool rebuild = true;
  /// Rebuild bandwidth per stream (MB/s) and step granularity (bytes).
  double rebuild_mbps = 32.0;
  std::size_t rebuild_chunk = 4u * 1024u * 1024u;
};

/// Fleet-mode knobs (`[fleet]` section): every cell becomes `shards`
/// independent arrays of [system] `disks` disks each, simulated with
/// sim/fleet_sim.h and reported as one merged result (cell `disks` column
/// = total fleet disks). Synthetic workloads only — each shard derives its
/// own stream from the cell's workload config via fleet_shard_seed.
/// Composes with [fault] (each shard gets an independent hazard plan),
/// [redundancy] and [control] (each shard carries its own state).
struct ScenarioFleet {
  bool enabled = false;
  std::uint32_t shards = 1;
  /// Worker threads *inside* each fleet cell (1 = inline). Cells already
  /// fan across the scenario pool; raise this only for few-cell fleet
  /// scenarios. Never affects result bytes.
  unsigned threads = 1;
};

/// Feedback-control knobs (`[control]` section): every cell runs with
/// SimConfig::control enabled — the latency / energy / epoch controllers
/// of control/control_loop.h close the loop between epochs, and the
/// admission window sheds requests whose backlog exceeds it. Composes
/// with [fault], [redundancy] and [fleet] (every shard runs its own
/// controller; the fleet cell reports shard-summed control counters).
/// The cell's `epoch_s` value seeds the adaptive epoch length.
struct ScenarioControl {
  bool enabled = false;
  /// The knobs, minus `enabled` (the section's presence sets it per
  /// cell). Defaults are control_config.h's: every controller off until
  /// its target is configured.
  ControlConfig config;
};

struct ScenarioSpec {
  std::string name = "scenario";
  /// Cell worker threads for the sweep (0 = hardware concurrency); the
  /// calling thread generates the workload variants. Never affects
  /// results — cell ordering is deterministic by construction.
  unsigned threads = 0;
  /// Workload seeds; a sweep axis (trace workloads ignore it).
  std::vector<std::uint64_t> seeds = {42};
  /// Array sizes; a sweep axis.
  std::vector<std::size_t> disks = {8};
  /// Epoch lengths P in seconds; a sweep axis.
  std::vector<double> epochs = {3600.0};
  /// Seek-curve positional I/O for every cell.
  bool positioned = false;
  std::vector<ScenarioWorkload> workloads;
  std::vector<ScenarioPolicy> policies;
  ScenarioFault fault;
  ScenarioFleet fleet;
  ScenarioRedundancy redundancy;
  ScenarioControl control;
};

/// Parse the INI-lite text above. Throws std::invalid_argument with
/// "<source>:<line>: ..." context for malformed input, unknown
/// sections/keys, unknown policies or presets.
[[nodiscard]] ScenarioSpec parse_scenario(std::string_view text,
                                          std::string_view source = "scenario");

/// Load and parse a scenario file (source = path in error messages).
[[nodiscard]] ScenarioSpec load_scenario_file(const std::string& path);

/// Cross-field validation (non-empty policies/axes, registry names,
/// presets, positive values). parse_scenario runs this; code-built specs
/// get it from the engine.
void validate_scenario(const ScenarioSpec& spec);

/// Map the [redundancy] scheme name to its RedundancyKind. Throws
/// std::invalid_argument for unknown names (listing the valid ones).
[[nodiscard]] RedundancyKind scenario_redundancy_kind(
    const ScenarioRedundancy& redundancy);

/// The cells' RedundancyConfig for a [redundancy] section (throws like
/// scenario_redundancy_kind for unknown schemes).
[[nodiscard]] RedundancyConfig scenario_redundancy_config(
    const ScenarioRedundancy& redundancy);

/// Known synthetic preset names (wc98-light, wc98-heavy, proxy, ftp,
/// email).
[[nodiscard]] std::vector<std::string> workload_presets();

/// Resolve a preset name to its SyntheticWorkloadConfig at `seed`.
/// Throws std::invalid_argument for unknown presets, listing valid ones.
[[nodiscard]] SyntheticWorkloadConfig preset_workload_config(
    std::string_view preset, std::uint64_t seed);

}  // namespace pr
