#include "core/report_io.h"

#include <fstream>
#include <ostream>

#include "util/fmt.h"

namespace pr {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

namespace {

class JsonWriter {
 public:
  // The text is built in a string through util/fmt.h (std::to_chars;
  // floats at precision 17, the bytes precision(17) ostream formatting
  // gave), so neither the global locale nor the caller's stream locale can
  // change a byte, and the caller's stream keeps the locale it had. With
  // a sink, the text is handed over in blocks of about kBlockBytes, so a
  // 1,000-disk report never sits in memory whole.
  explicit JsonWriter(std::ostream* sink) : sink_(sink) {}

  /// Ends the document with a newline; returns what was not yet written
  /// to the sink (all of it without one).
  std::string finish() {
    out_ += '\n';
    if (sink_ != nullptr) spill();
    return std::move(out_);
  }

  void key(const std::string& name) {
    if (sink_ != nullptr && out_.size() >= kBlockBytes) spill();
    comma();
    out_ += '"';
    out_ += json_escape(name);
    out_ += "\":";
    pending_comma_ = false;
  }
  void value(double v) { append_double(scalar(), v, 17); }
  void value(std::uint64_t v) { append_uint(scalar(), v); }
  void value(const std::string& v) {
    std::string& out = scalar();
    out += '"';
    out += json_escape(v);
    out += '"';
  }
  void open_object() { open('{'); }
  void close_object() { close('}'); }
  void open_array() { open('['); }
  void close_array() { close(']'); }

 private:
  std::string& scalar() {
    comma();
    pending_comma_ = true;
    return out_;
  }
  void open(char c) {
    comma();
    out_ += c;
    pending_comma_ = false;
  }
  void close(char c) {
    out_ += c;
    pending_comma_ = true;
  }
  void comma() {
    if (pending_comma_) out_ += ',';
  }

  void spill() {
    sink_->write(out_.data(), static_cast<std::streamsize>(out_.size()));
    out_.clear();
  }

  static constexpr std::size_t kBlockBytes = 16 * 1024;
  std::ostream* sink_;
  std::string out_;
  bool pending_comma_ = false;
};

void emit_json(const SystemReport& report, JsonWriter& w) {
  const SimResult& sim = report.sim;
  w.open_object();
  w.key("policy");
  w.value(sim.policy_name);
  w.key("requests");
  w.value(static_cast<std::uint64_t>(sim.user_requests));
  w.key("mean_response_time_s");
  w.value(sim.mean_response_time_s());
  w.key("p95_response_time_s");
  w.value(sim.response_time_sample.quantile(0.95));
  w.key("p99_response_time_s");
  w.value(sim.response_time_sample.quantile(0.99));
  w.key("energy_joules");
  w.value(sim.energy_joules());
  w.key("horizon_s");
  w.value(sim.horizon.value());
  w.key("total_transitions");
  w.value(sim.total_transitions);
  w.key("max_transitions_per_day");
  w.value(sim.max_transitions_per_day);
  w.key("migrations");
  w.value(sim.migrations);
  w.key("migration_bytes");
  w.value(static_cast<std::uint64_t>(sim.migration_bytes));
  w.key("array_afr");
  w.value(report.array_afr);
  w.key("worst_disk");
  w.value(static_cast<std::uint64_t>(report.worst_disk));

  w.key("counters");
  w.open_object();
  for (const auto& [name, count] : sim.counters) {
    w.key(name);
    w.value(count);
  }
  w.close_object();

  w.key("disks");
  w.open_array();
  for (std::size_t d = 0; d < sim.telemetry.size(); ++d) {
    const auto& t = sim.telemetry[d];
    const auto& l = sim.ledgers[d];
    w.open_object();
    w.key("disk");
    w.value(static_cast<std::uint64_t>(t.disk));
    w.key("temperature_c");
    w.value(t.temperature.value());
    w.key("utilization");
    w.value(t.utilization);
    w.key("transitions_per_day");
    w.value(t.transitions_per_day);
    w.key("busy_s");
    w.value(l.busy_time.value());
    w.key("idle_s");
    w.value(l.idle_time.value());
    w.key("transition_s");
    w.value(l.transition_time.value());
    w.key("energy_joules");
    w.value(l.energy.value());
    w.key("requests");
    w.value(l.requests);
    w.key("internal_ops");
    w.value(l.internal_ops);
    if (d < report.disk_press.size()) {
      const auto& b = report.disk_press[d];
      w.key("afr");
      w.open_object();
      w.key("temperature");
      w.value(b.temperature_afr);
      w.key("utilization");
      w.value(b.utilization_afr);
      w.key("frequency");
      w.value(b.frequency_afr);
      w.key("combined");
      w.value(b.combined_afr);
      w.close_object();
    }
    w.close_object();
  }
  w.close_array();
  w.close_object();
}

}  // namespace

std::string to_json(const SystemReport& report) {
  JsonWriter w(nullptr);
  emit_json(report, w);
  return w.finish();
}

void write_json(const SystemReport& report, std::ostream& out) {
  JsonWriter w(&out);
  emit_json(report, w);
  (void)w.finish();
}

void write_json_file(const SystemReport& report, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("write_json_file: cannot open " + path);
  write_json(report, out);
  if (!out) throw std::runtime_error("write_json_file: write failed " + path);
}

}  // namespace pr
