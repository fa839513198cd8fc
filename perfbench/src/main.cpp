// perfbench — one benchmark for the whole simulator.
//
//   perfbench --workload <fleet_day|trace_replay_observed|
//                         faulted_parity_sweep>
//             --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]
//
// --trace 0 measures the end-to-end metrics with no tracing; --trace 1
// adds a second, traced pass that times the calls into each layer's
// public seams and prints the per-layer metrics and their ledger. Both
// modes run the correctness checks; any failed check makes the final
// JSON line report "correct": false and the exit code non-zero.
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"

namespace {

using perfbench::Options;

const std::vector<std::string> kEndToEnd = {
    "requests_per_s", "setup_s",    "peak_rss_mb",   "energy_mj",
    "mean_rt_ms",     "p99_rt_ms",  "array_afr_pct", "served_ratio"};

/// Per-layer metrics (traced run) with their units. A metric a workload
/// does not exercise reads as zero.
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"workload.gen_s", "s"},
    {"workload.requests", "count"},
    {"workload.gen_ns_per_request", "ns/req"},
    {"workload.fileset_s", "s"},
    {"trace.parse_s", "s"},
    {"trace.requests", "count"},
    {"trace.bytes", "B"},
    {"trace.parse_ns_per_request", "ns/req"},
    {"trace.buffer_high_water_bytes", "B"},
    {"policy.init_s", "s"},
    {"policy.route_calls", "count"},
    {"policy.route_s", "s"},
    {"policy.after_serve_s", "s"},
    {"policy.epoch_calls", "count"},
    {"policy.epoch_s", "s"},
    {"policy.spin_down_asks", "count"},
    {"policy.spin_down_allowed", "ratio"},
    {"policy.control_calls", "count"},
    {"policy.control_accepted", "count"},
    {"sim.self_s", "s"},
    {"sim.self_ns_per_request", "ns/req"},
    {"sim.epochs", "count"},
    {"sim.idle_checks", "count"},
    {"sim.spin_downs", "count"},
    {"sim.spin_ups_to_serve", "count"},
    {"sim.spin_downs_vetoed", "count"},
    {"sim.policy_transitions", "count"},
    {"sim.migrations", "count"},
    {"sim.migration_mb", "MiB"},
    {"fleet.wall_1t_s", "s"},
    {"fleet.wall_s", "s"},
    {"fleet.speedup", "ratio"},
    {"fleet.shards", "count"},
    {"disk.util_mean", "ratio"},
    {"disk.util_stddev", "ratio"},
    {"disk.max_transitions_per_day", "1/day"},
    {"disk.total_transitions", "count"},
    {"obs.events", "count"},
    {"obs.jsonl_s", "s"},
    {"obs.jsonl_lines", "count"},
    {"obs.jsonl_bytes", "B"},
    {"obs.jsonl_ns_per_line", "ns/line"},
    {"obs.timeseries_s", "s"},
    {"obs.timeseries_windows", "count"},
    {"fault.injected", "count"},
    {"fault.degraded_requests", "count"},
    {"fault.lost_requests", "count"},
    {"fault.downtime_s", "s"},
    {"redundancy.reconstructed_requests", "count"},
    {"redundancy.rebuild_steps", "count"},
    {"redundancy.rebuild_wakeups", "count"},
    {"redundancy.rebuilds_started", "count"},
    {"redundancy.rebuilds_completed", "count"},
    {"redundancy.rebuild_completion_ratio", "ratio"},
    {"redundancy.data_loss_events", "count"},
    {"control.updates", "count"},
    {"control.shed_requests", "count"},
    {"control.h_scaled", "count"},
    {"control.hot_resizes", "count"},
    {"control.epoch_scaled", "count"},
    {"control.actuation_ratio", "ratio"},
    {"press.score_s", "s"},
    {"press.disks_scored", "count"},
    {"exp.scenario_s", "s"},
    {"exp.cells", "count"},
    {"exp.report_s", "s"},
    {"exp.report_bytes", "B"},
    {"trace_overhead_ratio", "ratio"},
    {"ledger.workload_s", "s"},
    {"ledger.workload_share", "ratio"},
    {"ledger.trace_s", "s"},
    {"ledger.trace_share", "ratio"},
    {"ledger.policy_s", "s"},
    {"ledger.policy_share", "ratio"},
    {"ledger.sim_s", "s"},
    {"ledger.sim_share", "ratio"},
    {"ledger.obs_s", "s"},
    {"ledger.obs_share", "ratio"},
    {"ledger.fault_s", "s"},
    {"ledger.fault_share", "ratio"},
    {"ledger.press_s", "s"},
    {"ledger.press_share", "ratio"},
    {"ledger.report_s", "s"},
    {"ledger.report_share", "ratio"},
    {"ledger.unattributed_share", "ratio"},
};

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      o.trace = value == "1";
    } else if (arg == "--workdir") {
      o.workdir = value;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse_args(argc, argv);
    perfbench::Report report;
    if (options.workload == "fleet_day") {
      perfbench::run_fleet_day(options, report);
    } else if (options.workload == "trace_replay_observed") {
      perfbench::run_trace_replay(options, report);
    } else if (options.workload == "faulted_parity_sweep") {
      perfbench::run_parity_sweep(options, report);
    } else {
      throw std::invalid_argument("unknown workload " + options.workload);
    }
    std::vector<std::string> keep = kEndToEnd;
    if (options.trace) {
      keep.clear();
      for (const auto& [name, unit] : kPerLayer) {
        if (!report.has(name)) {
          report.metric(name, 0.0, unit);
        } else if (report.unit(name) != unit) {
          throw std::logic_error("metric " + name + " has unit " +
                                 report.unit(name) + ", expected " + unit);
        }
        keep.push_back(name);
      }
    }
    report.print(std::cout, keep);
    return report.all_ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
