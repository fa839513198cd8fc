// The simulator's feature components, each driven without the request
// loop against a real small ArrayContext: the ParityEngine's
// reconstruction fan-out, the Controller's admission window, and the
// FaultInjector's idempotent event booking.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "redundancy/scheme.h"
#include "sim/array_sim.h"
#include "sim/controller.h"
#include "sim/fault_injector.h"

namespace pr {
namespace {

FileSet two_files() {
  std::vector<FileInfo> files(2);
  files[0] = {0, 1 * kMiB, 1.0};
  files[1] = {1, 2 * kMiB, 0.5};
  return FileSet(std::move(files));
}

SimConfig config(std::size_t disks) {
  SimConfig c;
  c.disk_params = two_speed_cheetah();
  c.disk_count = disks;
  return c;
}

std::uint64_t counter(ArrayContext& ctx, const std::string& name) {
  const auto snapshot = ctx.counters().snapshot();
  const auto it = snapshot.find(name);
  return it == snapshot.end() ? 0 : it->second;
}

/// Places file f on disk f; route() is the default placed-disk lookup.
class PlacedPolicy final : public Policy {
 public:
  std::string name() const override { return "Placed"; }
  void initialize(ArrayContext& ctx) override {
    for (FileId f = 0; f < ctx.files().size(); ++f) ctx.place(f, f);
  }
};

TEST(ParityEngine, Raid5PlansGroupMinusOneReadsOfTheChunk) {
  SimConfig cfg = config(8);
  cfg.redundancy.kind = RedundancyKind::kRaid5;
  cfg.redundancy.group = 4;
  const FileSet files = two_files();
  ArrayContext ctx(cfg, files);
  Raid5Scheme scheme(8, 4);
  // The injector (without a scheme) only holds disk 2 down.
  const FaultPlan plan =
      FaultPlan::from_events({{Seconds{0.0}, 2, FaultKind::kFail}});
  FaultInjector faults(ctx, plan, nullptr);
  faults.fire(Seconds{0.0});
  ASSERT_TRUE(ctx.disk_failed(2));

  ParityEngine engine(ctx, scheme);
  const StripeChunk chunk{2, 64 * kKiB};
  const auto reads = engine.plan_reconstruct(0, chunk);
  ASSERT_EQ(reads.size(), 3u);  // group − 1
  std::vector<DiskId> sources;
  for (const StripeChunk& read : reads) {
    EXPECT_EQ(read.bytes, chunk.bytes);
    sources.push_back(read.disk);
  }
  EXPECT_EQ(sources, (std::vector<DiskId>{0, 1, 3}));  // 2's group, not 2

  // Planning books nothing; booking counts one reconstructed chunk.
  EXPECT_EQ(counter(ctx, "sim.requests_reconstructed"), 0u);
  engine.book_reconstruct(Seconds{0.0}, 0, chunk.disk,
                          static_cast<std::uint32_t>(reads.size()),
                          chunk.bytes);
  EXPECT_EQ(counter(ctx, "sim.requests_reconstructed"), 1u);

  // A second failure inside the group leaves nothing to rebuild from.
  faults.apply({Seconds{1.0}, 1, FaultKind::kFail});
  EXPECT_TRUE(engine.plan_reconstruct(0, chunk).empty());
}

TEST(Controller, ShedsExactlyTheRequestsBeyondTheAdmissionWindow) {
  SimConfig cfg = config(2);
  cfg.control.enabled = true;
  cfg.control.admit_window_s = 0.5;
  const FileSet files = two_files();
  ArrayContext ctx(cfg, files);
  PlacedPolicy policy;
  policy.initialize(ctx);
  // Queue internal I/O on disk 0 at t = 0: its backlog for an arrival at
  // t is ready − t.
  ctx.background_copy(0, 0, 128 * kMiB);
  const double ready = ctx.disk(0).ready_time().value();
  ASSERT_GT(ready, 3.0);

  Controller controller(ctx, policy);
  struct Probe {
    double arrival;
    DiskId primary;
    bool admitted;
  };
  const std::vector<Probe> probes = {
      {0.0, 0, false},            // the whole backlog
      {ready - 2.0, 0, false},    // 2 s > 0.5 s
      {ready - 0.7, 0, false},    // 0.7 s > 0.5 s
      {ready - 0.3, 0, true},     // inside the window
      {ready + 1.0, 0, true},     // disk already idle
      {0.0, 1, true},             // an idle disk is never shed
  };
  std::uint64_t shed = 0;
  for (const Probe& p : probes) {
    Request req;
    req.arrival = Seconds{p.arrival};
    req.file = p.primary;
    EXPECT_EQ(controller.admit(req, p.primary), p.admitted) << p.arrival;
    if (!p.admitted) ++shed;
  }
  EXPECT_EQ(counter(ctx, "control.shed_requests"), shed);
}

TEST(FaultInjector, BooksAnIdempotentRepeatFailAsNothing) {
  const SimConfig cfg = config(2);
  const FileSet files = two_files();
  ArrayContext ctx(cfg, files);
  const FaultPlan plan = FaultPlan::from_events({
      {Seconds{1.0}, 0, FaultKind::kFail},
      {Seconds{2.0}, 0, FaultKind::kFail},  // already down: no change
      {Seconds{3.0}, 0, FaultKind::kRecover},
  });
  FaultInjector faults(ctx, plan, nullptr);
  EXPECT_EQ(counter(ctx, "sim.faults_injected"), 0u);  // interned, zero

  faults.fire(faults.next_time());
  EXPECT_TRUE(ctx.disk_failed(0));
  const auto after_first = ctx.counters().snapshot();
  EXPECT_EQ(after_first.at("sim.faults_injected"), 1u);

  faults.fire(faults.next_time());
  EXPECT_TRUE(ctx.disk_failed(0));
  EXPECT_EQ(ctx.counters().snapshot(), after_first);

  faults.fire(faults.next_time());
  EXPECT_FALSE(ctx.disk_failed(0));
  EXPECT_EQ(counter(ctx, "sim.fault_recoveries"), 1u);
  EXPECT_EQ(faults.next_time(), kNeverTime);
}

}  // namespace
}  // namespace pr
