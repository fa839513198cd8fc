// Chaos testing of the array simulator: a policy that makes random (but
// contract-valid) decisions — scattered placement, random DPM knobs,
// random migrations, copies and transitions at epochs, random routing to
// replicas it invents on the fly. Whatever a policy does within the API,
// the simulator's global invariants must survive. Parameterized over
// seeds for reproducible shrinking. A second suite combines the optional
// features — faults, parity with and without the rebuild, control with
// admission shedding, whole-file and striped requests — and checks the
// conservation identities in every combination.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "fault/fault_plan.h"
#include "policy/read_policy.h"
#include "policy/striped_read_policy.h"
#include "sim/array_sim.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace pr {
namespace {

class ChaosPolicy final : public Policy {
 public:
  explicit ChaosPolicy(std::uint64_t seed) : rng_(seed) {}

  std::string name() const override { return "Chaos"; }

  void initialize(ArrayContext& ctx) override {
    for (DiskId d = 0; d < ctx.disk_count(); ++d) {
      ctx.set_initial_speed(d, rng_.bernoulli(0.5) ? DiskSpeed::kHigh
                                                   : DiskSpeed::kLow);
      DpmConfig dpm;
      dpm.spin_down_when_idle = rng_.bernoulli(0.6);
      dpm.idleness_threshold = Seconds{rng_.uniform(0.5, 30.0)};
      dpm.spin_up_to_serve = rng_.bernoulli(0.5);
      if (rng_.bernoulli(0.3)) {
        dpm.spin_up_backlog = Seconds{rng_.uniform(0.01, 1.0)};
      }
      ctx.set_dpm(d, dpm);
    }
    for (FileId f = 0; f < ctx.files().size(); ++f) {
      ctx.place(f, static_cast<DiskId>(rng_.uniform_index(ctx.disk_count())));
    }
  }

  DiskId route(ArrayContext& ctx, const Request& req) override {
    // Mostly honest routing; occasionally serve from a random disk (a
    // policy is allowed to: think caches/replicas).
    if (rng_.bernoulli(0.9)) return ctx.location(req.file);
    return static_cast<DiskId>(rng_.uniform_index(ctx.disk_count()));
  }

  void after_serve(ArrayContext& ctx, const Request& req, DiskId d) override {
    if (rng_.bernoulli(0.02)) {
      ctx.background_copy(
          d, static_cast<DiskId>(rng_.uniform_index(ctx.disk_count())),
          req.size);
    }
    if (rng_.bernoulli(0.05)) ctx.bump("chaos.note");
  }

  void on_epoch(ArrayContext& ctx, Seconds now) override {
    (void)now;
    for (int i = 0; i < 5; ++i) {
      const auto f =
          static_cast<FileId>(rng_.uniform_index(ctx.files().size()));
      ctx.migrate(f,
                  static_cast<DiskId>(rng_.uniform_index(ctx.disk_count())));
      ++migrations_requested_;
    }
    if (rng_.bernoulli(0.5)) {
      const auto d =
          static_cast<DiskId>(rng_.uniform_index(ctx.disk_count()));
      ctx.request_transition(d, rng_.bernoulli(0.5) ? DiskSpeed::kHigh
                                                    : DiskSpeed::kLow);
    }
    if (rng_.bernoulli(0.3)) {
      const auto d =
          static_cast<DiskId>(rng_.uniform_index(ctx.disk_count()));
      ctx.set_idleness_threshold(d, Seconds{rng_.uniform(0.5, 60.0)});
    }
  }

  bool allow_spin_down(ArrayContext&, DiskId, Seconds) override {
    return rng_.bernoulli(0.8);
  }

  std::uint64_t migrations_requested_ = 0;

 private:
  Rng rng_;
};

class SimChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimChaos, InvariantsSurviveArbitraryPolicyBehaviour) {
  SyntheticWorkloadConfig wc;
  wc.file_count = 150;
  wc.request_count = 15'000;
  wc.mean_interarrival = Seconds{0.05};
  wc.seed = GetParam() * 977 + 13;
  wc.burstiness = 0.4;
  const auto w = generate_workload(wc);

  SimConfig cfg;
  cfg.disk_params = two_speed_cheetah();
  cfg.disk_count = 5;
  cfg.epoch = Seconds{30.0};
  if (GetParam() % 2 == 0) cfg.seek_curve = cheetah_seek_curve();

  ChaosPolicy policy(GetParam());
  const auto result = run_simulation(cfg, w.files, w.trace, policy);

  // Every user request served exactly once.
  EXPECT_EQ(result.user_requests, w.trace.size());
  std::uint64_t served = 0;
  for (const auto& l : result.ledgers) served += l.requests;
  EXPECT_EQ(served, w.trace.size());

  // Every instant of every disk attributed exactly once.
  for (const auto& l : result.ledgers) {
    EXPECT_NEAR(l.observed().value(), result.horizon.value(),
                1e-6 * result.horizon.value());
    EXPECT_GE(l.utilization(), 0.0);
    EXPECT_LE(l.utilization(), 1.0);
    EXPECT_GE(l.max_transitions_in_day, 0u);
    EXPECT_LE(l.max_transitions_in_day, l.transitions);
  }

  // Energy within physical bounds.
  const double horizon = result.horizon.value();
  const double floor =
      2.9 * horizon * static_cast<double>(cfg.disk_count);
  double lumps = 0.0;
  for (const auto& l : result.ledgers) {
    lumps += static_cast<double>(l.transitions_up) * 135.0 +
             static_cast<double>(l.transitions - l.transitions_up) * 13.0;
  }
  const double ceiling =
      13.5 * horizon * static_cast<double>(cfg.disk_count) + lumps;
  EXPECT_GE(result.total_energy.value(), floor - 1e-6);
  EXPECT_LE(result.total_energy.value(), ceiling + 1e-6);

  // Response times are positive and finite.
  EXPECT_GT(result.response_time.min(), 0.0);
  EXPECT_TRUE(std::isfinite(result.response_time.max()));

  // Migration accounting consistent (some chaos migrations are no-ops
  // when the random target equals the current disk).
  EXPECT_LE(result.migrations, policy.migrations_requested_);

  // Telemetry stays inside the model's envelope.
  for (const auto& t : result.telemetry) {
    EXPECT_GE(t.temperature.value(), 40.0 - 1e-9);
    EXPECT_LE(t.temperature.value(), 50.0 + 1e-9);
    EXPECT_GE(t.transitions_per_day, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimChaos,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

/// Records whether any served request fanned out over several disks.
class FanOutProbe final : public SimObserver {
 public:
  void on_request_complete(const RequestCompleteEvent& e) override {
    if (e.stripe_chunks > 1) ++fanned_out;
  }
  std::uint64_t fanned_out = 0;
};

std::uint64_t counter_or_zero(const SimResult& r, const std::string& name) {
  const auto it = r.counters.find(name);
  return it == r.counters.end() ? 0 : it->second;
}

/// (scheme, rebuild, control with an admission window, striped requests)
using FeatureMix = std::tuple<RedundancyKind, bool, bool, bool>;

class FeatureConservation : public ::testing::TestWithParam<FeatureMix> {};

TEST_P(FeatureConservation, IdentitiesHoldWithTheFeaturesCombined) {
  const auto [kind, rebuild, control, striped] = GetParam();
  auto wc = worldcup98_light_config(23);
  wc.file_count = 200;
  wc.request_count = 6'000;
  const auto w = generate_workload(wc);
  ASSERT_GT(w.trace.requests.back().arrival.value(), 300.0);

  // Two overlapping failures in one parity group (data loss, and lost
  // requests where nothing covers them), a slowdown, and recoveries that
  // cut in-flight rebuilds short or find them finished.
  const FaultPlan plan = FaultPlan::from_events({
      {Seconds{30.0}, 1, FaultKind::kFail},
      {Seconds{60.0}, 5, FaultKind::kSlowdown, 3.0},
      {Seconds{100.0}, 2, FaultKind::kFail},
      {Seconds{150.0}, 2, FaultKind::kRecover},
      {Seconds{220.0}, 1, FaultKind::kRecover},
      {Seconds{260.0}, 5, FaultKind::kSlowdown, 1.0},
  });

  SimConfig cfg;
  cfg.disk_params = two_speed_cheetah();
  cfg.disk_count = 8;
  cfg.epoch = Seconds{60.0};
  cfg.redundancy.kind = kind;
  cfg.redundancy.group = kind == RedundancyKind::kRaid5 ? 4 : 0;
  cfg.redundancy.rebuild = rebuild;
  cfg.redundancy.rebuild_mbps = 0.05;
  cfg.control.enabled = control;
  cfg.control.target_rt_ms = 20.0;
  cfg.control.admit_window_s = 0.05;

  // A 4 KiB stripe unit fans most files out; at the default 512 KiB the
  // striped runs would serve exactly what the whole-file ones do.
  StripedReadConfig sc;
  sc.stripe_unit = 4 * kKiB;
  StripedReadPolicy striped_read(sc);
  ReadPolicy read{ReadConfig{}};
  Policy& policy = striped ? static_cast<Policy&>(striped_read)
                           : static_cast<Policy&>(read);
  FanOutProbe probe;
  const SimResult r =
      run_simulation(cfg, w.files, w.trace, policy, &probe, &plan);

  if (striped) {
    EXPECT_GT(probe.fanned_out, 0u);
  }
  EXPECT_EQ(r.user_requests + counter_or_zero(r, "control.shed_requests") +
                counter_or_zero(r, "sim.requests_lost"),
            w.trace.size());
  Joules ledger_sum{0.0};
  for (const auto& l : r.ledgers) ledger_sum += l.energy;
  EXPECT_EQ(r.total_energy.value(), ledger_sum.value());
  EXPECT_GE(counter_or_zero(r, "redundancy.rebuilds_started"),
            counter_or_zero(r, "redundancy.rebuilds_completed") +
                counter_or_zero(r, "redundancy.rebuilds_aborted"));
  // Every instant of every disk lands in one bucket. The three bucket
  // sums round independently, so they match the horizon to rounding
  // (about 1e-12 relative here), not bit for bit.
  for (const auto& l : r.ledgers) {
    EXPECT_NEAR(l.observed().value(), r.horizon.value(),
                1e-9 * r.horizon.value());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, FeatureConservation,
    ::testing::Combine(::testing::Values(RedundancyKind::kNone,
                                         RedundancyKind::kRaid5,
                                         RedundancyKind::kDeclustered),
                       ::testing::Bool(), ::testing::Bool(),
                       ::testing::Bool()));

}  // namespace
}  // namespace pr
