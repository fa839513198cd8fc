#include "exp/scenario_report.h"

#include <fstream>
#include <ostream>
#include <stdexcept>
#include <string_view>

#include "core/report_io.h"
#include "util/csv.h"
#include "util/fmt.h"

namespace pr {

namespace {

/// Full-precision decimal text (CsvWriter's default formatting rounds to
/// 6 significant digits; metric comparisons need all of them). Routed
/// through the locale-independent util formatter so a host application's
/// global locale can never change the CSV bytes.
std::string full(double v) { return format_double(v, 17); }

void append_json_string(std::string& out, std::string_view text) {
  out += '"';
  out += json_escape(text);
  out += '"';
}

/// `,"key":value` — a non-first member of a JSON object.
void field(std::string& out, std::string_view key, double v) {
  out += ",\"";
  out += key;
  out += "\":";
  append_double(out, v, 17);
}
void field(std::string& out, std::string_view key, std::uint64_t v) {
  out += ",\"";
  out += key;
  out += "\":";
  append_uint(out, v);
}

/// The scenario JSON, appended to `out` through util/fmt.h like the report
/// JSON (no locale reaches a byte, no caller stream is imbued). `flush`
/// is handed `out` after the header and after each cell.
template <typename Flush>
void emit_scenario_json(const ScenarioResult& result, bool include_reports,
                        std::string& out, Flush flush) {
  out += "{\"scenario\":";
  append_json_string(out, result.scenario);
  out += ",\"cells\":[";
  flush(out);
  bool first = true;
  for (const ScenarioCell& c : result.cells) {
    if (!first) out += ',';
    first = false;
    const SimResult& sim = c.report.sim;
    out += "{\"policy\":";
    append_json_string(out, c.policy);
    out += ",\"workload\":";
    append_json_string(out, c.workload);
    field(out, "load", c.load);
    field(out, "seed", c.seed);
    field(out, "epoch_s", c.epoch_s);
    field(out, "disks", static_cast<std::uint64_t>(c.disks));
    field(out, "array_afr", c.report.array_afr);
    field(out, "energy_joules", sim.energy_joules());
    field(out, "mean_response_time_s", sim.mean_response_time_s());
    field(out, "total_transitions", sim.total_transitions);
    field(out, "max_transitions_per_day", sim.max_transitions_per_day);
    field(out, "migrations", sim.migrations);
    if (c.fault) {
      const ScenarioFaultCell& f = *c.fault;
      out += ",\"fault\":{\"rate_scale\":";
      append_double(out, f.rate_scale, 17);
      field(out, "injected_afr", f.injected_afr);
      field(out, "failures", f.failures);
      field(out, "lost", f.lost_requests);
      field(out, "degraded", f.degraded_requests);
      field(out, "downtime_s", f.downtime_s);
      field(out, "degraded_window_s", f.degraded_window_s);
      field(out, "mean_recovery_s", f.mean_recovery_s);
      field(out, "observed_afr", f.observed_afr);
      field(out, "press_over_injected", f.press_over_injected);
      field(out, "press_over_observed", f.press_over_observed);
      out += '}';
    }
    if (c.redundancy) {
      const ScenarioRedundancyCell& r = *c.redundancy;
      out += ",\"redundancy\":{\"scheme\":";
      append_json_string(out, r.scheme);
      field(out, "reconstructed", r.reconstructed_requests);
      field(out, "data_loss_events", r.data_loss_events);
      field(out, "rebuilds_started", r.rebuilds_started);
      field(out, "rebuilds_completed", r.rebuilds_completed);
      field(out, "mean_rebuild_s", r.mean_rebuild_s);
      field(out, "mttdl_hours", r.predicted_mttdl_hours);
      field(out, "predicted_losses_per_year", r.predicted_losses_per_year);
      field(out, "observed_losses_per_year", r.observed_losses_per_year);
      field(out, "loss_over_predicted", r.observed_over_predicted);
      out += '}';
    }
    if (c.control) {
      const ScenarioControlCell& k = *c.control;
      out += ",\"control\":{\"updates\":";
      append_uint(out, k.updates);
      field(out, "shed", k.shed_requests);
      field(out, "h_scaled", k.h_scaled);
      field(out, "hot_grows", k.hot_grows);
      field(out, "hot_shrinks", k.hot_shrinks);
      field(out, "epoch_scaled", k.epoch_scaled);
      out += '}';
    }
    if (include_reports) {
      // pr::to_json emits a complete JSON object (plus a trailing
      // newline, stripped here) — splice it in verbatim.
      std::string report = pr::to_json(c.report);
      while (!report.empty() && report.back() == '\n') report.pop_back();
      out += ",\"report\":";
      out += report;
    }
    out += '}';
    flush(out);
  }
  out += "]}\n";
  flush(out);
}

}  // namespace

std::string scenario_csv_header(bool with_faults, bool with_redundancy,
                                bool with_control) {
  std::string header =
      "scenario,policy,workload,load,seed,epoch_s,disks,array_afr,"
      "energy_j,mean_rt_ms,p95_rt_ms,total_transitions,"
      "max_transitions_per_day,migrations,migration_mb";
  if (with_faults) {
    header +=
        ",fault_rate_scale,fault_injected_afr,fault_failures,fault_lost,"
        "fault_degraded,fault_downtime_s,fault_degraded_window_s,"
        "fault_mean_recovery_s,fault_observed_afr,press_over_injected,"
        "press_over_observed";
  }
  if (with_redundancy) {
    header +=
        ",redundancy_scheme,reconstructed,data_loss_events,rebuilds_started,"
        "rebuilds_completed,mean_rebuild_s,mttdl_hours,"
        "predicted_losses_per_year,observed_losses_per_year,"
        "loss_over_predicted";
  }
  if (with_control) {
    header +=
        ",control_updates,control_shed,control_h_scaled,control_hot_grows,"
        "control_hot_shrinks,control_epoch_scaled";
  }
  return header;
}

void write_scenario_csv(const ScenarioResult& result, std::ostream& out) {
  out << scenario_csv_header(result.faulted, result.redundant,
                             result.controlled)
      << "\n";
  CsvWriter writer(out);
  for (const ScenarioCell& c : result.cells) {
    const SimResult& sim = c.report.sim;
    std::vector<std::string> fields = {
        result.scenario,
        c.policy,
        c.workload,
        full(c.load),
        std::to_string(c.seed),
        full(c.epoch_s),
        std::to_string(c.disks),
        full(c.report.array_afr),
        full(sim.energy_joules()),
        full(sim.mean_response_time_s() * 1e3),
        full(sim.response_time_sample.quantile(0.95) * 1e3),
        std::to_string(sim.total_transitions),
        full(sim.max_transitions_per_day),
        std::to_string(sim.migrations),
        full(static_cast<double>(sim.migration_bytes) / 1e6)};
    if (result.faulted) {
      // value_or keeps the schema fixed even if a cell somehow lacks the
      // fault payload (all-zero metrics, same as a rate_scale-0 cell).
      const ScenarioFaultCell f = c.fault.value_or(ScenarioFaultCell{});
      fields.insert(fields.end(),
                    {full(f.rate_scale), full(f.injected_afr),
                     std::to_string(f.failures), std::to_string(f.lost_requests),
                     std::to_string(f.degraded_requests), full(f.downtime_s),
                     full(f.degraded_window_s), full(f.mean_recovery_s),
                     full(f.observed_afr), full(f.press_over_injected),
                     full(f.press_over_observed)});
    }
    if (result.redundant) {
      const ScenarioRedundancyCell r =
          c.redundancy.value_or(ScenarioRedundancyCell{});
      fields.insert(fields.end(),
                    {r.scheme, std::to_string(r.reconstructed_requests),
                     std::to_string(r.data_loss_events),
                     std::to_string(r.rebuilds_started),
                     std::to_string(r.rebuilds_completed),
                     full(r.mean_rebuild_s), full(r.predicted_mttdl_hours),
                     full(r.predicted_losses_per_year),
                     full(r.observed_losses_per_year),
                     full(r.observed_over_predicted)});
    }
    if (result.controlled) {
      const ScenarioControlCell k = c.control.value_or(ScenarioControlCell{});
      fields.insert(fields.end(),
                    {std::to_string(k.updates), std::to_string(k.shed_requests),
                     std::to_string(k.h_scaled), std::to_string(k.hot_grows),
                     std::to_string(k.hot_shrinks),
                     std::to_string(k.epoch_scaled)});
    }
    writer.write_row(fields);
  }
}

void write_scenario_csv_file(const ScenarioResult& result,
                             const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("write_scenario_csv_file: cannot open " + path);
  }
  write_scenario_csv(result, out);
  if (!out) {
    throw std::runtime_error("write_scenario_csv_file: write failed " + path);
  }
}

void write_scenario_json(const ScenarioResult& result, std::ostream& out,
                         bool include_reports) {
  // One cell at a time: a grid's JSON never sits in memory whole.
  std::string text;
  emit_scenario_json(result, include_reports, text, [&out](std::string& t) {
    out.write(t.data(), static_cast<std::streamsize>(t.size()));
    t.clear();
  });
}

void write_scenario_json_file(const ScenarioResult& result,
                              const std::string& path, bool include_reports) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("write_scenario_json_file: cannot open " + path);
  }
  write_scenario_json(result, out, include_reports);
  if (!out) {
    throw std::runtime_error("write_scenario_json_file: write failed " + path);
  }
}

std::string to_json(const ScenarioResult& result, bool include_reports) {
  std::string json;
  emit_scenario_json(result, include_reports, json, [](std::string&) {});
  return json;
}

}  // namespace pr
