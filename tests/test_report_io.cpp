// Tests for the JSON report emitter.
#include "core/report_io.h"

#include <gtest/gtest.h>

#include <locale>
#include <sstream>
#include <string>

#include "core/session.h"
#include "policy/read_policy.h"
#include "workload/synthetic.h"

namespace pr {
namespace {

TEST(JsonEscape, EscapesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("x\x01y", 3)), "x\\u0001y");
}

SystemReport sample_report() {
  SyntheticWorkloadConfig wc;
  wc.file_count = 100;
  wc.request_count = 3'000;
  wc.seed = 3;
  const auto w = generate_workload(wc);
  SystemConfig cfg;
  cfg.sim.disk_count = 4;
  ReadPolicy policy;
  return SimulationSession(cfg)
             .with_workload(w.files, w.trace)
             .with_policy(policy)
             .run();
}

/// A German-style numpunct: 1234567.5 prints as "1.234.567,5".
class GroupingPunct final : public std::numpunct<char> {
 protected:
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

/// A one-disk report whose integers and floats all have four or more
/// digits, so any grouping separator or locale decimal point would show.
SystemReport grouping_sensitive_report() {
  SystemReport report;
  SimResult& sim = report.sim;
  sim.policy_name = "READ";
  sim.user_requests = 1'048'576;
  sim.response_time.add(1234.5);
  sim.total_energy = Joules{2'500'000.25};
  sim.horizon = Seconds{86'400.5};
  sim.total_transitions = 12'345;
  sim.max_transitions_per_day = 1'234.5;
  sim.migrations = 4'096;
  sim.migration_bytes = 2'097'152;
  sim.counters["sim.requests"] = 1'048'576;
  DiskTelemetry t;
  t.temperature = Celsius{40.5};
  t.utilization = 0.25;
  t.transitions_per_day = 1'234.5;
  sim.telemetry.push_back(t);
  DiskLedger l;
  l.busy_time = Seconds{1'000.5};
  l.idle_time = Seconds{85'400.0};
  l.transition_time = Seconds{0.0};
  l.energy = Joules{2'500'000.25};
  l.requests = 1'048'576;
  l.internal_ops = 1'000;
  sim.ledgers.push_back(l);
  report.disk_press.push_back({0.5, 0.25, 0.125, 1.5});
  report.array_afr = 1.5;
  return report;
}

TEST(ReportIo, JsonBytesIgnoreAndKeepTheCallersLocale) {
  const SystemReport report = grouping_sensitive_report();
  const std::string classic =
      R"({"policy":"READ","requests":1048576,"mean_response_time_s":1234.5,)"
      R"("p95_response_time_s":0,"p99_response_time_s":0,)"
      R"("energy_joules":2500000.25,"horizon_s":86400.5,)"
      R"("total_transitions":12345,"max_transitions_per_day":1234.5,)"
      R"("migrations":4096,"migration_bytes":2097152,"array_afr":1.5,)"
      R"("worst_disk":0,"counters":{"sim.requests":1048576},"disks":[)"
      R"({"disk":0,"temperature_c":40.5,"utilization":0.25,)"
      R"("transitions_per_day":1234.5,"busy_s":1000.5,"idle_s":85400,)"
      R"("transition_s":0,"energy_joules":2500000.25,"requests":1048576,)"
      R"("internal_ops":1000,"afr":{"temperature":0.5,"utilization":0.25,)"
      R"("frequency":0.125,"combined":1.5}}]})"
      "\n";
  EXPECT_EQ(to_json(report), classic);

  const std::locale grouping(std::locale::classic(), new GroupingPunct);
  const std::locale previous = std::locale::global(grouping);
  std::ostringstream out;  // picks up the global locale
  const std::locale before = out.getloc();
  write_json(report, out);
  const bool kept = out.getloc() == before;
  std::locale::global(previous);
  EXPECT_TRUE(kept) << "write_json changed the caller's stream locale";
  EXPECT_EQ(std::use_facet<std::numpunct<char>>(out.getloc()).thousands_sep(),
            '.');
  EXPECT_EQ(out.str(), classic);
}

TEST(ReportJson, ContainsRunLevelFields) {
  const auto report = sample_report();
  const std::string json = to_json(report);
  EXPECT_NE(json.find("\"policy\":\"READ\""), std::string::npos);
  EXPECT_NE(json.find("\"requests\":3000"), std::string::npos);
  EXPECT_NE(json.find("\"array_afr\":"), std::string::npos);
  EXPECT_NE(json.find("\"energy_joules\":"), std::string::npos);
  EXPECT_NE(json.find("\"disks\":["), std::string::npos);
  EXPECT_NE(json.find("\"afr\":{"), std::string::npos);
}

TEST(ReportJson, PerDiskEntriesMatchArraySize) {
  const auto report = sample_report();
  const std::string json = to_json(report);
  std::size_t count = 0;
  for (std::size_t pos = 0;
       (pos = json.find("\"temperature_c\":", pos)) != std::string::npos;
       ++pos) {
    ++count;
  }
  EXPECT_EQ(count, 4u);
}

TEST(ReportJson, StructurallyBalanced) {
  // Cheap well-formedness check: balanced braces/brackets and no trailing
  // comma before a closer.
  const std::string json = to_json(sample_report());
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  char prev = '\0';
  for (const char c : json) {
    if (in_string) {
      if (c == '"' && prev != '\\') in_string = false;
    } else {
      if (c == '"') in_string = true;
      if (c == '{') ++braces;
      if (c == '}') --braces;
      if (c == '[') ++brackets;
      if (c == ']') --brackets;
      if ((c == '}' || c == ']') && prev == ',') {
        FAIL() << "trailing comma before closer";
      }
      ASSERT_GE(braces, 0);
      ASSERT_GE(brackets, 0);
    }
    prev = c;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

TEST(ReportJson, WriteFileFailsOnBadPath) {
  const auto report = sample_report();
  EXPECT_THROW(write_json_file(report, "/no/such/dir/report.json"),
               std::runtime_error);
}

}  // namespace
}  // namespace pr
