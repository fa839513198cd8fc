// experiment.h — small shared vocabulary for Fig. 7-style evaluations:
// the policy factory every sweep cell calls for a fresh policy, and the
// relative-improvement metric the figures report. Grids of cells run
// through the scenario engine (exp/scenario_engine.h).
#pragma once

#include <functional>
#include <memory>

#include "core/system.h"

namespace pr {

/// Factory so each sweep cell gets a fresh policy (policies are stateful).
using PolicyFactory = std::function<std::unique_ptr<Policy>()>;

/// Relative improvement of `ours` over `baseline` for a lower-is-better
/// metric: (baseline − ours) / baseline. Positive = we are better.
/// Degenerate inputs — a zero baseline or any non-finite operand — return
/// 0.0 ("no improvement") instead of NaN/±inf, so sweep-level averages of
/// this quantity stay meaningful.
[[nodiscard]] double improvement(double ours, double baseline);

}  // namespace pr
