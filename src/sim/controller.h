// controller.h — the feedback-control feature of the array simulator:
// admission shedding at dispatch, the per-epoch control window, and the
// boundary actuation of ControlLoop's decisions (DPM idleness thresholds,
// the hot-zone size through Policy::on_control, the epoch length). The
// simulator builds one only when SimConfig::control.enabled, so a
// control-free run reports none of its control.* counters.
#pragma once

#include <algorithm>
#include <cstdint>

#include "control/control_loop.h"
#include "sim/array_sim.h"

namespace pr {

class Controller {
 public:
  Controller(ArrayContext& ctx, Policy& policy)
      : ctx_(ctx), policy_(policy), loop_(ctx.config().control),
        h_updates_(ctx.counters_.intern("control.updates")),
        h_shed_(ctx.counters_.intern("control.shed_requests")),
        h_h_scaled_(ctx.counters_.intern("control.h_scaled")),
        h_hot_grows_(ctx.counters_.intern("control.hot_grows")),
        h_hot_shrinks_(ctx.counters_.intern("control.hot_shrinks")),
        h_epoch_scaled_(ctx.counters_.intern("control.epoch_scaled")) {}

  /// Admission at dispatch: measure the FCFS backlog of the request's
  /// primary disk (how long it would wait before service begins), fold it
  /// into the epoch window, and — when an admission window is configured
  /// — shed the request (false) instead of queueing it unboundedly. A
  /// shed request is booked here and never served: no response-time
  /// sample, no completion event, no after_serve.
  [[nodiscard]] bool admit(const Request& req, DiskId primary) {
    const double backlog = std::max(
        0.0, (ctx_.disks_[primary].ready_time() - req.arrival).value());
    const double limit = loop_.config().admit_window_s;
    if (limit > 0.0 && backlog > limit) {
      ctx_.counters_.add(h_shed_);
      ++window_.shed;
      return false;
    }
    if (backlog > window_.max_backlog_s) window_.max_backlog_s = backlog;
    return true;
  }

  /// Fold one served request's response time into the epoch window
  /// (arrival order, so the fold is deterministic).
  void record(double rt_s) {
    ++window_.requests;
    rt_sum_ += rt_s;
  }

  /// Close the epoch window at `boundary`: fold it into the ControlLoop,
  /// actuate the decision, announce a ControlUpdateEvent, and return the
  /// length of the next epoch. The energy window is the ledger delta
  /// between boundaries; ledgers close idle stretches lazily, so a
  /// window's spend can lag by a trailing idle stretch — deterministic,
  /// and it evens out across windows.
  [[nodiscard]] Seconds close_epoch(Seconds boundary,
                                    std::uint64_t epoch_index,
                                    Seconds epoch_len) {
    const ControlConfig& cfg = loop_.config();
    Joules energy_now{0.0};
    for (const Disk& disk : ctx_.disks_) energy_now += disk.ledger().energy;

    ControlInputs& in = window_;
    in.epoch_s = epoch_len.value();
    in.mean_rt_s =
        in.requests > 0 ? rt_sum_ / static_cast<double>(in.requests) : 0.0;
    in.energy_j = (energy_now - last_energy_).value();

    const ControlDecision decision = loop_.update(in);
    ctx_.counters_.add(h_updates_);

    if (decision.h_scale != 1.0) {
      // Rescale every DPM-managed disk's idleness threshold; disks the
      // policy left un-managed (cold zones, always-on disks) are not the
      // latency controller's to touch.
      bool scaled = false;
      for (DiskId d = 0; d < ctx_.disk_count(); ++d) {
        if (!ctx_.dpm_[d].spin_down_when_idle) continue;
        const double h = ctx_.dpm_[d].idleness_threshold.value();
        const double stretched =
            std::clamp(h * decision.h_scale, cfg.h_min_s, cfg.h_max_s);
        if (stretched != h) {
          ctx_.set_idleness_threshold(d, Seconds{stretched});
          scaled = true;
        }
      }
      if (scaled) ctx_.counters_.add(h_h_scaled_);
    }

    int applied = 0;
    if (decision.hot_delta != 0) {
      applied = policy_.on_control(ctx_, decision, boundary);
      if (applied > 0) {
        ctx_.counters_.add(h_hot_grows_, static_cast<std::uint64_t>(applied));
      } else if (applied < 0) {
        ctx_.counters_.add(h_hot_shrinks_,
                           static_cast<std::uint64_t>(-applied));
      }
    }

    if (decision.epoch_scale != 1.0) {
      const double stretched =
          std::clamp(epoch_len.value() * decision.epoch_scale,
                     cfg.epoch_min_s, cfg.epoch_max_s);
      if (stretched != epoch_len.value()) {
        epoch_len = Seconds{stretched};
        ctx_.counters_.add(h_epoch_scaled_);
      }
    }

    if (ctx_.observer_ != nullptr) {
      ControlUpdateEvent event;
      event.time = boundary;
      event.epoch_index = epoch_index;
      event.requests = in.requests;
      event.shed = in.shed;
      event.mean_rt_s = in.mean_rt_s;
      event.max_backlog_s = in.max_backlog_s;
      event.energy_j = in.energy_j;
      event.h_scale = decision.h_scale;
      event.hot_delta = applied;
      event.epoch_scale = decision.epoch_scale;
      event.epoch_len_s = epoch_len.value();
      ctx_.observer_->on_control_update(event);
    }

    last_energy_ = energy_now;
    window_ = ControlInputs{};
    rt_sum_ = 0.0;
    return epoch_len;
  }

 private:
  ArrayContext& ctx_;
  Policy& policy_;
  ControlLoop loop_;
  /// The epoch window (served requests, worst backlog, sheds) and the
  /// served requests' response-time sum, reset at every boundary.
  ControlInputs window_;
  double rt_sum_ = 0.0;
  Joules last_energy_{0.0};
  CounterRegistry::Handle h_updates_;
  CounterRegistry::Handle h_shed_;
  CounterRegistry::Handle h_h_scaled_;
  CounterRegistry::Handle h_hot_grows_;
  CounterRegistry::Handle h_hot_shrinks_;
  CounterRegistry::Handle h_epoch_scaled_;
};

}  // namespace pr
