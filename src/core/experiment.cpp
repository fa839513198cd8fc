#include "core/experiment.h"

#include <cmath>

namespace pr {

double improvement(double ours, double baseline) {
  // Degenerate inputs (zero baseline, NaN/inf from an empty or failed
  // cell) would yield NaN/±inf here and poison every downstream average;
  // report "no improvement" for them instead.
  if (!std::isfinite(ours) || !std::isfinite(baseline) || baseline == 0.0) {
    return 0.0;
  }
  return (baseline - ours) / baseline;
}

}  // namespace pr
