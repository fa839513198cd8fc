// rebuild.h — the paced background rebuild engine.
//
// When a parity-protected disk fail-stops, the array must reconstruct its
// contents onto a spare before a second failure turns degradation into
// data loss. The scheduler here models that as a stream of fixed-size
// *steps*: every `chunk / (mbps·1e6)` seconds one step falls due, and the
// simulator turns it into real I/O — one read on each surviving stripe
// source plus one write on the rebuilt disk, queued FCFS behind whatever
// foreground traffic those disks carry, waking them (TransitionCause::
// kRebuild) if the energy policy had spun them down. That wake-up is the
// paper's reliability-vs-energy tension made concrete: the energy ledger
// and the DegradationAnalyzer windows both see it.
//
// The scheduler itself is pure bookkeeping (which disks are rebuilding,
// how far along, when the next step falls due) so it stays deterministic
// and trivially testable; the simulator's ParityEngine
// (sim/fault_injector.h) owns it and does all the I/O, counters and
// events. Several disks may rebuild concurrently (distinct groups, or a
// declustered layout that survived by luck); steps fall due
// earliest-first, ties broken by lowest disk id.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/array_sim.h"
#include "util/units.h"

namespace pr {

class RebuildScheduler {
 public:
  /// One due step, popped by the simulator and turned into I/O.
  struct Step {
    DiskId disk = kInvalidDisk;
    /// The instant the step falls due.
    Seconds time{0.0};
    /// Bytes this step reconstructs (the final step may be short).
    Bytes bytes = 0;
    /// Zero-based step index — parity schemes use it as the stripe salt
    /// for source rotation.
    std::uint64_t index = 0;
    /// Progress after this step.
    Bytes done = 0;
    Bytes total = 0;
    /// When the rebuild started (for duration reporting).
    Seconds started{0.0};
    /// True when this step finishes the rebuild.
    bool completes = false;
  };

  /// Set the pacing; must be called (with mbps > 0, chunk > 0) before
  /// start().
  void configure(double mbps, Bytes chunk);

  [[nodiscard]] bool active() const { return !rebuilding_.empty(); }
  [[nodiscard]] bool rebuilding(DiskId d) const;
  /// Due time of the earliest pending step, kNeverTime when idle — feeds
  /// the simulator's wake hint.
  [[nodiscard]] Seconds next_time() const;

  /// Begin rebuilding `disk` (`total` bytes) at `now`. A zero-byte
  /// rebuild schedules one immediately-completing step so the disk still
  /// goes through the full start → complete lifecycle. No-op if the disk
  /// is already rebuilding.
  void start(DiskId disk, Seconds now, Bytes total);

  /// Drop an in-flight rebuild (the disk recovered by other means).
  /// Returns true if one was actually in flight.
  bool abort(DiskId disk);

  /// Pop the earliest step due at or before `t` into `out`, advancing the
  /// rebuild's state (progress, next due time; completed rebuilds are
  /// removed). Returns false when nothing is due.
  bool pop_due(Seconds t, Step& out);

 private:
  struct InFlight {
    DiskId disk = kInvalidDisk;
    Bytes total = 0;
    Bytes done = 0;
    std::uint64_t steps = 0;
    Seconds next{0.0};
    Seconds started{0.0};
  };

  /// Index of the earliest-due rebuild (ties → lowest disk id), or
  /// rebuilding_.size() when idle.
  [[nodiscard]] std::size_t earliest() const;

  std::vector<InFlight> rebuilding_;
  double period_s_ = 0.0;
  Bytes chunk_ = 0;
};

}  // namespace pr
