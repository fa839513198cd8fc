#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "core/report_io.h"

namespace perfbench {

namespace {
constexpr std::size_t kBlockBytes = 1 << 16;
}  // namespace

InputFile::~InputFile() {
  std::error_code ignored;
  std::filesystem::remove(path_, ignored);
}

Quartiles quartiles(std::vector<double> values) {
  if (values.empty()) throw std::logic_error("quartiles of no values");
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  // statistics.quantiles(method='exclusive'): position j*(n+1)/4, 1-based.
  const auto at = [&](double pos) {
    pos = std::clamp(pos, 1.0, n);
    const auto lo = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    const std::size_t hi = std::min(lo + 1, values.size());
    return values[lo - 1] + frac * (values[hi - 1] - values[lo - 1]);
  };
  Quartiles q;
  q.q1 = at((n + 1) / 4.0);
  q.median = median(values);
  q.q3 = at(3.0 * (n + 1) / 4.0);
  return q;
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::logic_error("median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void note_spread(Report& report, const std::string& name,
                 const std::vector<double>& values) {
  const Quartiles q = quartiles(values);
  std::ostringstream line;
  line << std::setprecision(6) << name << ": median " << q.median << " (q1 "
       << q.q1 << ", q3 " << q.q3 << ", min "
       << *std::min_element(values.begin(), values.end()) << ", max "
       << *std::max_element(values.begin(), values.end()) << ") over "
       << values.size() << " iterations";
  report.note(line.str());
}

double peak_rss_mib() {
  // VmHWM is the high-water mark of this process image only; getrusage's
  // ru_maxrss would also carry the launching process's peak across exec.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

// ---------------------------------------------------------------------------

DigestBuf::DigestBuf() : block_(kBlockBytes) {
  setp(block_.data(), block_.data() + block_.size());
}

void DigestBuf::fold(const char* data, std::size_t n) {
  // FNV-1a over 8-byte words (a tail shorter than a word is zero-padded).
  // Blocks are always full except the last, so folding is deterministic.
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, data + i, 8);
    hash_ = (hash_ ^ word) * 0x100000001b3ULL;
  }
  if (i < n) {
    std::uint64_t word = 0;
    std::memcpy(&word, data + i, n - i);
    hash_ = (hash_ ^ word) * 0x100000001b3ULL;
  }
  lines_ += static_cast<std::uint64_t>(std::count(data, data + n, '\n'));
  bytes_ += n;
}

DigestBuf::int_type DigestBuf::overflow(int_type ch) {
  fold(pbase(), static_cast<std::size_t>(pptr() - pbase()));
  setp(block_.data(), block_.data() + block_.size());
  if (!traits_type::eq_int_type(ch, traits_type::eof())) {
    *pptr() = traits_type::to_char_type(ch);
    pbump(1);
  }
  return traits_type::not_eof(ch);
}

int DigestBuf::sync() { return 0; }

std::uint64_t DigestBuf::digest() {
  // The tail is folded only here, so a digest taken mid-stream and one
  // taken at the end see the same block boundaries.
  fold(pbase(), static_cast<std::size_t>(pptr() - pbase()));
  setp(block_.data(), block_.data() + block_.size());
  return hash_ ^ bytes_;
}

std::uint64_t DigestBuf::bytes() {
  return bytes_ + static_cast<std::uint64_t>(pptr() - pbase());
}

std::uint64_t DigestBuf::lines() {
  return lines_ + static_cast<std::uint64_t>(std::count(pbase(), pptr(), '\n'));
}

std::uint64_t report_digest(const pr::SystemReport& report) {
  DigestStream out;
  pr::write_json(report, out);
  return out.digest();
}

std::uint64_t result_digest(const pr::SimResult& result) {
  return report_digest(pr::score(pr::PressModel{pr::PressConfig{}}, result));
}

std::string n_of(std::size_t n, std::size_t total, const char* what) {
  std::string text = std::to_string(n);
  text.append("/").append(std::to_string(total)).append(" ").append(what);
  return text;
}

std::uint64_t counter_of(const pr::SimResult& result, const char* name) {
  const auto it = result.counters.find(name);
  return it == result.counters.end() ? 0 : it->second;
}

Accounting account(const pr::SimResult& result, std::uint64_t produced) {
  Accounting a;
  a.produced = produced;
  a.served = result.user_requests;
  a.shed = counter_of(result, "control.shed_requests");
  a.lost = counter_of(result, "sim.requests_lost");
  return a;
}

bool energy_matches_ledgers(const pr::SimResult& result) {
  double sum = 0.0;
  for (const auto& ledger : result.ledgers) sum += ledger.energy.value();
  const double total = result.total_energy.value();
  return std::abs(sum - total) <= 1e-9 * std::max(1.0, std::abs(total));
}

std::size_t beyond_p99(const pr::ReservoirSample& sample) {
  if (sample.size() == 0) return 0;
  const double pos = 0.99 * static_cast<double>(sample.size() - 1);
  return sample.size() - 1 - static_cast<std::size_t>(pos);
}

// ---------------------------------------------------------------------------

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  ok_ = ok_ && ok;
  lines_.push_back(std::string("check ") + name + ": " +
                   (ok ? "ok" : "FAILED") + " (" + detail + ")");
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    throw std::logic_error("metric " + name + " is not finite");
  }
  metrics_[name] = Metric{value, unit};
}

void Report::note(const std::string& line) { lines_.push_back(line); }

void Report::print(std::ostream& out,
                   const std::vector<std::string>& keep) const {
  for (const auto& line : lines_) out << line << '\n';
  std::ostringstream json;
  json << std::setprecision(17);
  json << "{\"correct\": " << (ok_ ? "true" : "false")
       << ", \"attempted\": " << attempted_
       << ", \"failed\": " << (ok_ ? 0 : attempted_)
       << ", \"metrics\": {";
  bool first = true;
  for (const auto& name : keep) {
    const auto it = metrics_.find(name);
    if (it == metrics_.end()) {
      throw std::logic_error("metric " + name + " was not measured");
    }
    out << "metric " << name << " = " << std::setprecision(10)
        << it->second.value << ' ' << it->second.unit << '\n';
    json << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
         << it->second.value << ", \"unit\": \"" << it->second.unit << "\"}";
    first = false;
  }
  json << "}}";
  out << json.str() << std::endl;
}

// ---------------------------------------------------------------------------

namespace {

/// Times one call and books it into `span`.
template <typename F>
auto timed(Span& span, F&& f) {
  ++span.calls;
  const double t0 = now_s();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    span.seconds += now_s() - t0;
  } else {
    auto result = f();
    span.seconds += now_s() - t0;
    return result;
  }
}

}  // namespace

bool TimedSource::poll(pr::Request& out) {
  return timed(span_, [&] { return inner_.next(out); });
}

std::size_t TimedSource::poll_batch(pr::Request* out, std::size_t max) {
  return timed(span_, [&] { return inner_.next_batch(out, max); });
}

void PolicySpans::add(const PolicySpans& other) {
  const auto fold = [](Span& a, const Span& b) {
    a.seconds += b.seconds;
    a.calls += b.calls;
  };
  fold(init, other.init);
  fold(route, other.route);
  fold(after_serve, other.after_serve);
  fold(epoch, other.epoch);
  fold(control, other.control);
  fold(spin_down, other.spin_down);
  control_accepted += other.control_accepted;
  spin_down_allowed += other.spin_down_allowed;
}

void TimedPolicy::initialize(pr::ArrayContext& ctx) {
  timed(spans_.init, [&] { inner_.initialize(ctx); });
}

pr::DiskId TimedPolicy::route(pr::ArrayContext& ctx, const pr::Request& req) {
  return timed(spans_.route, [&] { return inner_.route(ctx, req); });
}

std::vector<pr::StripeChunk> TimedPolicy::stripe(pr::ArrayContext& ctx,
                                                 const pr::Request& req) {
  return timed(spans_.route, [&] { return inner_.stripe(ctx, req); });
}

void TimedPolicy::after_serve(pr::ArrayContext& ctx, const pr::Request& req,
                              pr::DiskId d) {
  timed(spans_.after_serve, [&] { inner_.after_serve(ctx, req, d); });
}

void TimedPolicy::on_epoch(pr::ArrayContext& ctx, pr::Seconds now) {
  timed(spans_.epoch, [&] { inner_.on_epoch(ctx, now); });
}

int TimedPolicy::on_control(pr::ArrayContext& ctx,
                            const pr::ControlDecision& decision,
                            pr::Seconds now) {
  const int taken = timed(
      spans_.control, [&] { return inner_.on_control(ctx, decision, now); });
  if (taken != 0) ++spans_.control_accepted;
  return taken;
}

bool TimedPolicy::allow_spin_down(pr::ArrayContext& ctx, pr::DiskId d,
                                  pr::Seconds now) {
  const bool allowed = timed(
      spans_.spin_down, [&] { return inner_.allow_spin_down(ctx, d, now); });
  if (allowed) ++spans_.spin_down_allowed;
  return allowed;
}

void TimedObserver::on_run_start(const pr::RunStartEvent& e) {
  timed(span_, [&] { inner_.on_run_start(e); });
}
void TimedObserver::on_request_complete(const pr::RequestCompleteEvent& e) {
  timed(span_, [&] { inner_.on_request_complete(e); });
}
void TimedObserver::on_speed_transition(const pr::SpeedTransitionEvent& e) {
  timed(span_, [&] { inner_.on_speed_transition(e); });
}
void TimedObserver::on_disk_state_change(const pr::DiskStateChangeEvent& e) {
  timed(span_, [&] { inner_.on_disk_state_change(e); });
}
void TimedObserver::on_epoch_end(const pr::EpochEndEvent& e) {
  timed(span_, [&] { inner_.on_epoch_end(e); });
}
void TimedObserver::on_migration(const pr::MigrationEvent& e) {
  timed(span_, [&] { inner_.on_migration(e); });
}
void TimedObserver::on_background_copy(const pr::BackgroundCopyEvent& e) {
  ++copies_;
  timed(span_, [&] { inner_.on_background_copy(e); });
}
void TimedObserver::on_disk_fail(const pr::DiskFailEvent& e) {
  timed(span_, [&] { inner_.on_disk_fail(e); });
}
void TimedObserver::on_disk_recover(const pr::DiskRecoverEvent& e) {
  timed(span_, [&] { inner_.on_disk_recover(e); });
}
void TimedObserver::on_request_degraded(const pr::RequestDegradedEvent& e) {
  timed(span_, [&] { inner_.on_request_degraded(e); });
}
void TimedObserver::on_rebuild_start(const pr::RebuildStartEvent& e) {
  timed(span_, [&] { inner_.on_rebuild_start(e); });
}
void TimedObserver::on_rebuild_progress(const pr::RebuildProgressEvent& e) {
  timed(span_, [&] { inner_.on_rebuild_progress(e); });
}
void TimedObserver::on_rebuild_complete(const pr::RebuildCompleteEvent& e) {
  timed(span_, [&] { inner_.on_rebuild_complete(e); });
}
void TimedObserver::on_stripe_reconstruct(
    const pr::StripeReconstructEvent& e) {
  timed(span_, [&] { inner_.on_stripe_reconstruct(e); });
}
void TimedObserver::on_control_update(const pr::ControlUpdateEvent& e) {
  timed(span_, [&] { inner_.on_control_update(e); });
}
void TimedObserver::on_run_end(const pr::RunEndEvent& e) {
  timed(span_, [&] { inner_.on_run_end(e); });
}

// ---------------------------------------------------------------------------

void Ledger::emit(Report& report) const {
  double attributed = 0.0;
  for (const char* layer :
       {"workload", "trace", "policy", "sim", "obs", "fault", "press", "report"}) {
    const auto it = layers.find(layer);
    const double s = it == layers.end() ? 0.0 : it->second;
    attributed += s;
    report.metric(std::string("ledger.") + layer + "_s", s, "s");
    report.metric(std::string("ledger.") + layer + "_share",
                  wall > 0.0 ? s / wall : 0.0, "ratio");
  }
  report.metric("ledger.unattributed_share",
                wall > 0.0 ? (wall - attributed) / wall : 0.0, "ratio");
}

void emit_policy(Report& report, const PolicySpans& p) {
  report.metric("policy.init_s", p.init.seconds, "s");
  report.metric("policy.route_calls", static_cast<double>(p.route.calls),
                "count");
  report.metric("policy.route_s", p.route.seconds, "s");
  report.metric("policy.after_serve_s", p.after_serve.seconds, "s");
  report.metric("policy.epoch_calls", static_cast<double>(p.epoch.calls),
                "count");
  report.metric("policy.epoch_s", p.epoch.seconds, "s");
  report.metric("policy.spin_down_asks", static_cast<double>(p.spin_down.calls),
                "count");
  report.metric("policy.spin_down_allowed",
                p.spin_down.calls == 0
                    ? 0.0
                    : static_cast<double>(p.spin_down_allowed) /
                          static_cast<double>(p.spin_down.calls),
                "ratio");
  report.metric("policy.control_calls", static_cast<double>(p.control.calls),
                "count");
  report.metric("policy.control_accepted",
                static_cast<double>(p.control_accepted), "count");
}

void emit_sim_counters(Report& report,
                       const std::vector<const pr::SimResult*>& results) {
  const auto sum = [&](const char* name) {
    std::uint64_t total = 0;
    for (const auto* r : results) total += counter_of(*r, name);
    return static_cast<double>(total);
  };
  for (const char* name :
       {"sim.epochs", "sim.idle_checks", "sim.spin_downs",
        "sim.spin_ups_to_serve", "sim.spin_downs_vetoed",
        "sim.policy_transitions"}) {
    report.metric(name, sum(name), "count");
  }
  double migrations = 0.0;
  double migration_bytes = 0.0;
  double util_sum = 0.0;
  double util_sq = 0.0;
  double disks = 0.0;
  double max_per_day = 0.0;
  double transitions = 0.0;
  for (const auto* r : results) {
    migrations += static_cast<double>(r->migrations);
    migration_bytes += static_cast<double>(r->migration_bytes);
    max_per_day = std::max(max_per_day, r->max_transitions_per_day);
    transitions += static_cast<double>(r->total_transitions);
    for (const auto& ledger : r->ledgers) {
      const double u = ledger.utilization();
      util_sum += u;
      util_sq += u * u;
      disks += 1.0;
    }
  }
  report.metric("sim.migrations", migrations, "count");
  report.metric("sim.migration_mb", migration_bytes / (1024.0 * 1024.0),
                "MiB");
  const double mean = disks > 0.0 ? util_sum / disks : 0.0;
  report.metric("disk.util_mean", mean, "ratio");
  report.metric("disk.util_stddev",
                disks > 0.0
                    ? std::sqrt(std::max(0.0, util_sq / disks - mean * mean))
                    : 0.0,
                "ratio");
  report.metric("disk.max_transitions_per_day", max_per_day, "1/day");
  report.metric("disk.total_transitions", transitions, "count");

  // Fault, redundancy and control counters (zero where the layer is off).
  report.metric("fault.injected", sum("sim.faults_injected"), "count");
  // Served in degraded mode: redirected, slowed or rebuilt from parity.
  report.metric("fault.degraded_requests",
                sum("sim.requests_degraded") + sum("sim.requests_slowed") +
                    sum("sim.requests_reconstructed"),
                "count");
  report.metric("fault.lost_requests", sum("sim.requests_lost"), "count");
  report.metric("fault.downtime_s", sum("fault.downtime_ms") / 1e3, "s");
  report.metric("redundancy.reconstructed_requests",
                sum("sim.requests_reconstructed"), "count");
  report.metric("redundancy.rebuild_steps", sum("redundancy.rebuild_steps"),
                "count");
  report.metric("redundancy.rebuild_wakeups",
                sum("redundancy.rebuild_wakeups"), "count");
  const double started = sum("redundancy.rebuilds_started");
  const double completed = sum("redundancy.rebuilds_completed");
  report.metric("redundancy.rebuilds_started", started, "count");
  report.metric("redundancy.rebuilds_completed", completed, "count");
  report.metric("redundancy.rebuild_completion_ratio",
                started > 0.0 ? completed / started : 0.0, "ratio");
  report.metric("redundancy.data_loss_events",
                sum("redundancy.data_loss_events"), "count");
  const double updates = sum("control.updates");
  const double resizes = sum("control.hot_grows") + sum("control.hot_shrinks");
  const double actuations =
      sum("control.h_scaled") + resizes + sum("control.epoch_scaled");
  report.metric("control.updates", updates, "count");
  report.metric("control.shed_requests", sum("control.shed_requests"),
                "count");
  report.metric("control.h_scaled", sum("control.h_scaled"), "count");
  report.metric("control.hot_resizes", resizes, "count");
  report.metric("control.epoch_scaled", sum("control.epoch_scaled"), "count");
  report.metric("control.actuation_ratio",
                updates > 0.0 ? actuations / updates : 0.0, "ratio");
}

EndToEnd aggregate(const std::vector<ArrayOutcome>& arrays) {
  EndToEnd e;
  double rt_weighted = 0.0;
  for (const ArrayOutcome& a : arrays) {
    const pr::SimResult& sim = *a.sim;
    e.energy_mj += sim.total_energy.value() / 1e6;
    rt_weighted +=
        sim.mean_response_time_s() * static_cast<double>(sim.user_requests);
    e.p99_rt_ms += sim.response_time_sample.quantile(0.99) * 1e3;
    e.p99_samples += sim.response_time_sample.size();
    e.p99_beyond += beyond_p99(sim.response_time_sample);
    const Accounting acc = account(sim, a.produced);
    e.totals.produced += acc.produced;
    e.totals.served += acc.served;
    e.totals.shed += acc.shed;
    e.totals.lost += acc.lost;
  }
  if (!arrays.empty()) e.p99_rt_ms /= static_cast<double>(arrays.size());
  if (e.totals.served > 0) {
    e.mean_rt_ms = rt_weighted / static_cast<double>(e.totals.served) * 1e3;
  }
  return e;
}

void emit_end_to_end(Report& report, const EndToEnd& e, double peak_rss) {
  report.metric("requests_per_s", e.requests_per_s, "req/s");
  report.metric("setup_s", e.setup_s, "s");
  report.metric("peak_rss_mb", peak_rss, "MiB");
  report.metric("energy_mj", e.energy_mj, "MJ");
  report.metric("mean_rt_ms", e.mean_rt_ms, "ms");
  report.metric("p99_rt_ms", e.p99_rt_ms, "ms");
  report.metric("array_afr_pct", e.array_afr_pct, "%");
  const Accounting& t = e.totals;
  report.metric("served_ratio",
                t.produced == 0 ? 0.0
                                : static_cast<double>(t.served) /
                                      static_cast<double>(t.produced),
                "ratio");
  report.note("p99_rt_ms averages per-array reservoir p99s over " +
              std::to_string(e.p99_samples) + " samples, " +
              std::to_string(e.p99_beyond) + " of them beyond p99");
  const std::uint64_t failed = t.produced - t.served;
  report.note("failed_ratio = " + std::to_string(failed) + " / " +
              std::to_string(t.produced) + " (shed " + std::to_string(t.shed) +
              ", lost " + std::to_string(t.lost) + ")");
}

}  // namespace perfbench
