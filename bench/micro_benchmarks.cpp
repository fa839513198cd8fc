// micro_benchmarks — google-benchmark microbenchmarks for the hot paths:
// idle-timer re-arm, Zipf sampling, disk service, PRESS evaluation,
// end-to-end simulation throughput, and JSONL number formatting. These
// guard against performance regressions that would make the Fig. 7 grid
// impractical.
#include <benchmark/benchmark.h>

#include <charconv>
#include <limits>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "core/system.h"
#include "obs/counter_registry.h"
#include "obs/jsonl_writer.h"
#include "obs/time_series.h"
#include "policy/online_read_policy.h"
#include "policy/read_policy.h"
#include "policy/static_policy.h"
#include "press/press_model.h"
#include "sim/idle_timer.h"
#include "trace/csv_trace.h"
#include "trace/stream_reader.h"
#include "util/fmt.h"
#include "workload/synthetic.h"
#include "workload/zipf.h"

namespace {

using namespace pr;

// The DPM scheduling pattern: every serve re-arms the disk's single idle
// deadline. The heap replaces it in place, so n re-arms keep the
// structure at |disks| entries instead of n.
void BM_IdleTimerRearm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::uint32_t kDisks = 8;
  Rng rng(1);
  for (auto _ : state) {
    IdleTimerHeap h;
    h.resize(kDisks);
    std::uint64_t seq = 0;
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      t += rng.uniform();
      h.arm(static_cast<std::uint32_t>(rng() % kDisks), Seconds{t + 10.0},
            seq++);
    }
    while (!h.empty()) benchmark::DoNotOptimize(h.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_IdleTimerRearm)->Arg(1'000)->Arg(100'000);

void BM_ZipfSample(benchmark::State& state) {
  ZipfDistribution zipf(static_cast<std::size_t>(state.range(0)), 0.8);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(4'079)->Arg(100'000);

// The generation layer as a fleet shard runs it: a wc98-light source
// (4,079 files, diurnal arrivals) drained through next_batch in 256-request
// batches. The source never runs dry, so every iteration is one batch of
// steady-state generation and setup stays out of the timed loop.
void BM_SyntheticPoll(benchmark::State& state) {
  constexpr std::size_t kBatch = 256;
  SyntheticWorkloadConfig cfg = worldcup98_light_config(7);
  cfg.request_count = std::numeric_limits<std::size_t>::max();
  SyntheticSource source(cfg);
  std::vector<Request> batch(kBatch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(source.next_batch(batch.data(), kBatch));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_SyntheticPoll);

void BM_DiskServe(benchmark::State& state) {
  Disk disk(0, two_speed_cheetah(), DiskSpeed::kHigh);
  double t = 0.0;
  for (auto _ : state) {
    t += 0.01;
    benchmark::DoNotOptimize(disk.serve(Seconds{t}, 8 * kKiB));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DiskServe);

void BM_PressDiskAfr(benchmark::State& state) {
  PressModel press;
  DiskTelemetry t;
  t.temperature = Celsius{47.0};
  t.utilization = 0.62;
  t.transitions_per_day = 38.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(press.disk_afr(t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PressDiskAfr);

void BM_TraceGeneration(benchmark::State& state) {
  SyntheticWorkloadConfig cfg;
  cfg.file_count = 1'000;
  cfg.request_count = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_workload(cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_TraceGeneration)->Arg(10'000)->Arg(100'000);

void BM_SimulationThroughput(benchmark::State& state) {
  SyntheticWorkloadConfig cfg;
  cfg.file_count = 1'000;
  cfg.request_count = static_cast<std::size_t>(state.range(0));
  const auto w = generate_workload(cfg);
  SimConfig sim;
  sim.disk_params = two_speed_cheetah();
  sim.disk_count = 8;
  for (auto _ : state) {
    StaticPolicy policy;
    benchmark::DoNotOptimize(
        run_simulation(sim, w.files, w.trace, policy));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SimulationThroughput)->Arg(10'000)->Arg(100'000);

void BM_ReadPolicySimulation(benchmark::State& state) {
  SyntheticWorkloadConfig cfg;
  cfg.file_count = 1'000;
  cfg.request_count = static_cast<std::size_t>(state.range(0));
  const auto w = generate_workload(cfg);
  SimConfig sim;
  sim.disk_params = two_speed_cheetah();
  sim.disk_count = 8;
  sim.epoch = Seconds{600.0};
  for (auto _ : state) {
    ReadPolicy policy;
    benchmark::DoNotOptimize(
        run_simulation(sim, w.files, w.trace, policy));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ReadPolicySimulation)->Arg(10'000)->Arg(100'000);

// Same loop as BM_SimulationThroughput with a TimeSeriesRecorder attached;
// the gap to the detached run is the full observability cost (dispatch +
// ledger deltas + window bucketing). bench/obs_overhead prints the same
// comparison as a readable table.
void BM_SimulationWithTimeSeries(benchmark::State& state) {
  SyntheticWorkloadConfig cfg;
  cfg.file_count = 1'000;
  cfg.request_count = static_cast<std::size_t>(state.range(0));
  const auto w = generate_workload(cfg);
  SimConfig sim;
  sim.disk_params = two_speed_cheetah();
  sim.disk_count = 8;
  for (auto _ : state) {
    StaticPolicy policy;
    TimeSeriesRecorder recorder{Seconds{60.0}};
    benchmark::DoNotOptimize(
        run_simulation(sim, w.files, w.trace, policy, &recorder));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SimulationWithTimeSeries)->Arg(10'000)->Arg(100'000);

// Batch READ vs the incremental variant on the same trace: the delta is
// the per-serve counting plus mid-epoch promotions against the O(k)
// boundary rebalance both share.
void BM_OnlineReadSimulation(benchmark::State& state) {
  SyntheticWorkloadConfig cfg;
  cfg.file_count = 1'000;
  cfg.request_count = static_cast<std::size_t>(state.range(0));
  const auto w = generate_workload(cfg);
  SimConfig sim;
  sim.disk_params = two_speed_cheetah();
  sim.disk_count = 8;
  sim.epoch = Seconds{600.0};
  for (auto _ : state) {
    OnlineReadPolicy policy;
    benchmark::DoNotOptimize(
        run_simulation(sim, w.files, w.trace, policy));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_OnlineReadSimulation)->Arg(10'000)->Arg(100'000);

// Parse + frame throughput of the bounded-memory CSV reader, excluding
// simulation: the floor any streaming run pays per request over the
// materialized path.
void BM_StreamingIngest(benchmark::State& state) {
  SyntheticWorkloadConfig cfg;
  cfg.file_count = 1'000;
  cfg.request_count = static_cast<std::size_t>(state.range(0));
  const auto w = generate_workload(cfg);
  std::ostringstream text;
  write_csv_trace(w.trace, text);
  const std::string bytes = text.str();
  for (auto _ : state) {
    std::istringstream in(bytes);
    CsvStreamSource source(in, "bench.csv");
    Request r;
    while (source.next(r)) benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_StreamingIngest)->Arg(10'000)->Arg(100'000);

// End-to-end streamed simulation (CSV text -> reader -> simulator),
// comparable against BM_SimulationThroughput's materialized loop.
void BM_StreamingSimulation(benchmark::State& state) {
  SyntheticWorkloadConfig cfg;
  cfg.file_count = 1'000;
  cfg.request_count = static_cast<std::size_t>(state.range(0));
  const auto w = generate_workload(cfg);
  std::ostringstream text;
  write_csv_trace(w.trace, text);
  const std::string bytes = text.str();
  SimConfig sim;
  sim.disk_params = two_speed_cheetah();
  sim.disk_count = 8;
  for (auto _ : state) {
    std::istringstream in(bytes);
    CsvStreamSource source(in, "bench.csv");
    StaticPolicy policy;
    benchmark::DoNotOptimize(
        run_simulation(sim, w.files, source, policy));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_StreamingSimulation)->Arg(10'000)->Arg(100'000);

void BM_CounterRegistryAdd(benchmark::State& state) {
  CounterRegistry registry;
  const auto handle = registry.intern("bench.counter");
  for (auto _ : state) {
    registry.add(handle);
    benchmark::DoNotOptimize(registry);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterRegistryAdd);

void BM_CounterRegistryAddByName(benchmark::State& state) {
  CounterRegistry registry;
  registry.add("bench.counter");
  for (auto _ : state) {
    registry.add("bench.counter");
    benchmark::DoNotOptimize(registry);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterRegistryAddByName);

/// What a trace's doubles look like: arrival times up to a day, sub-second
/// service and response times, joule-scale energies, some exact integers
/// and zeros — fixed by seed, built at run time.
std::vector<double> mixed_magnitudes() {
  Rng rng(13);
  std::vector<double> values(4'096);
  for (std::size_t i = 0; i < values.size(); ++i) {
    switch (i % 8) {
      case 0: values[i] = rng.uniform(0.0, 86'400.0); break;
      case 1: values[i] = rng.uniform(1e-4, 0.05); break;
      case 2: values[i] = rng.uniform(0.0, 2.0); break;
      case 3: values[i] = rng.uniform(1.0, 500.0); break;
      case 4: values[i] = static_cast<double>(rng() >> 40); break;
      case 5: values[i] = 0.0; break;
      case 6: values[i] = rng.uniform(1e5, 1e9); break;
      default: values[i] = rng.uniform(1e-6, 1e-3); break;
    }
  }
  return values;
}

// `%.17g` text per double: Arg(0) is append_double (the exact 128-bit path
// with its to_chars fallback), Arg(1) the plain std::to_chars reference
// it must match byte for byte (tests/test_fmt.cpp).
void BM_FormatDouble17(benchmark::State& state) {
  const auto values = mixed_magnitudes();
  const bool reference = state.range(0) == 1;
  state.SetLabel(reference ? "to_chars" : "append_double");
  std::string out;
  std::size_t i = 0;
  for (auto _ : state) {
    out.clear();
    const double v = values[i++ % values.size()];
    if (reference) {
      char buf[64];
      const auto res = std::to_chars(buf, buf + sizeof buf, v,
                                     std::chars_format::general, 17);
      out.append(buf, res.ptr);
    } else {
      append_double(out, v, 17);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FormatDouble17)->Arg(0)->Arg(1);

/// Counts and drops bytes: the writer's cost without a real sink.
class NullBuf final : public std::streambuf {
 public:
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type ch) override {
    ++bytes_;
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }

 private:
  std::uint64_t bytes_ = 0;
};

// One JSONL request line (7 doubles, 4 integers) from event to stream.
void BM_JsonlRequestLine(benchmark::State& state) {
  const auto values = mixed_magnitudes();
  NullBuf sink;
  std::ostream out(&sink);
  JsonlTraceWriter writer(out);
  RequestCompleteEvent event;
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t at = i++;
    event.arrival = Seconds{values[at % values.size()]};
    event.completion =
        event.arrival + Seconds{values[(at + 1) % values.size()]};
    event.file = static_cast<FileId>(at % 4'079);
    event.disk = static_cast<DiskId>(at % 8);
    event.bytes = 4'096 + (at % 65'536);
    event.backlog = Seconds{values[(at + 2) % values.size()]};
    event.service_time = Seconds{values[(at + 3) % values.size()]};
    event.energy = Joules{values[(at + 4) % values.size()]};
    writer.on_request_complete(event);
  }
  benchmark::DoNotOptimize(sink.bytes());
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(sink.bytes()));
}
BENCHMARK(BM_JsonlRequestLine);

}  // namespace

BENCHMARK_MAIN();
