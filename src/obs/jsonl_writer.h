// jsonl_writer.h — streams simulation events to a JSON Lines file/stream,
// one self-describing object per line, in emission order. Because the
// simulator's event order is deterministic, two same-seed runs produce
// byte-identical output (numbers are printed at full precision with a
// fixed format; no wall-clock or locale state leaks in) — verified by
// tests/test_observer.cpp. Each line is built in a reused string and
// written with one unformatted ostream::write, so the stream's buffer is
// the only batching layer and a line is in the stream when its hook
// returns.
#pragma once

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <string>

#include "obs/observer.h"

namespace pr {

/// Which event kinds are written (all by default). Request lines dominate
/// file size on big traces; disable them to keep only the control-plane
/// events (transitions, epochs, migrations).
struct JsonlOptions {
  bool requests = true;
  bool transitions = true;
  bool state_changes = true;
  bool epochs = true;
  bool migrations = true;
  /// Fault-injection lines (disk_fail/disk_recover/request_degraded).
  /// On by default: they only fire when a FaultPlan is attached, so
  /// fault-free traces are unchanged.
  bool faults = true;
  /// Background-copy lines. Off by default: these fire in existing
  /// MAID/replication runs, and the v1 trace schema is frozen
  /// byte-for-byte — opt in to see cache-fill/replica traffic.
  bool copies = false;
  /// Redundancy-layer lines (rebuild_start/rebuild_progress/
  /// rebuild_complete/stripe_reconstruct). On by default: they only fire
  /// when a parity RedundancyScheme is configured and faults strike, so
  /// every pre-redundancy trace is unchanged (v1 schema safe).
  bool rebuilds = true;
  /// Control-loop lines (one per epoch boundary of a control-enabled
  /// run). On by default: they only fire when SimConfig::control.enabled
  /// is set, so every control-free trace is unchanged (v1 schema safe).
  bool control = true;
};

class JsonlTraceWriter final : public SimObserver {
 public:
  /// Write to a caller-owned stream (kept open; flushed at run end).
  explicit JsonlTraceWriter(std::ostream& out, JsonlOptions options = {});
  /// Open `path` for writing (throws std::runtime_error on failure).
  explicit JsonlTraceWriter(const std::string& path, JsonlOptions options = {});

  void on_run_start(const RunStartEvent& event) override;
  void on_request_complete(const RequestCompleteEvent& event) override;
  void on_speed_transition(const SpeedTransitionEvent& event) override;
  void on_disk_state_change(const DiskStateChangeEvent& event) override;
  void on_epoch_end(const EpochEndEvent& event) override;
  void on_migration(const MigrationEvent& event) override;
  void on_background_copy(const BackgroundCopyEvent& event) override;
  void on_disk_fail(const DiskFailEvent& event) override;
  void on_disk_recover(const DiskRecoverEvent& event) override;
  void on_request_degraded(const RequestDegradedEvent& event) override;
  void on_rebuild_start(const RebuildStartEvent& event) override;
  void on_rebuild_progress(const RebuildProgressEvent& event) override;
  void on_rebuild_complete(const RebuildCompleteEvent& event) override;
  void on_stripe_reconstruct(const StripeReconstructEvent& event) override;
  void on_control_update(const ControlUpdateEvent& event) override;
  void on_run_end(const RunEndEvent& event) override;

  /// Lines handed to the stream. A stream that failed does not lose them
  /// silently: on_run_end throws once it has flushed.
  [[nodiscard]] std::uint64_t lines_written() const { return lines_; }

 private:
  /// Append every part to the line buffer (doubles at precision 17,
  /// integers in decimal, anything else as text), then hand the line to
  /// the stream in one write and count it. Defined in jsonl_writer.cpp,
  /// its only user.
  template <typename... Parts>
  void write_line(const Parts&... parts);

  std::ofstream owned_;
  std::ostream* out_;
  JsonlOptions options_;
  /// One reused buffer: no per-line allocation once it reached the
  /// longest line's size. Numbers go through util/fmt.h, so the caller's
  /// stream locale is never consulted (nor changed).
  std::string line_;
  std::uint64_t lines_ = 0;
};

}  // namespace pr
