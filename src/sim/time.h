// Simulated time. Continuous (fluid-flow) time as double seconds; ties in the
// event queue are broken by insertion sequence, so identical runs replay in
// identical order.
#pragma once

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/units.h"

namespace ds::sim {

using SimTime = ds::Seconds;

// Tolerance for "this fluid volume / interval has been fully consumed".
// Volumes are >= kilobytes and times >= milliseconds; 1e-6 is far below
// anything observable but far above accumulated double error.
inline constexpr double kFluidEps = 1e-6;

// Completion test for fluid work being serviced at `rate`. The byte-absolute
// epsilon alone is not enough: accumulated float error can leave a residue
// slightly above kFluidEps whose drain time at a high rate is *below double
// time resolution*, freezing the event loop at a fixed timestamp (a Zeno
// loop). Anything that would drain within a nanosecond of simulated time is
// therefore also complete.
inline constexpr double kTimeEps = 1e-9;

inline bool fluid_done(double remaining, double rate) {
  return remaining <= kFluidEps || remaining <= rate * kTimeEps;
}

// Past kClockHorizon = 2^24 s, half an ulp of the clock exceeds kTimeEps: a
// drain longer than a nanosecond but shorter than that half ulp is neither
// done nor able to move the clock, so the fluid resource would re-fire at
// the same instant forever. Fail instead of hanging; `next` = 0 is a
// completion now. Inputs that set the clock (a job's arrival) must stay
// below the horizon.
inline constexpr SimTime kClockHorizon = 16777216.0;

inline void check_clock_resolves(SimTime now, Seconds next) {
  DS_CHECK_MSG(next == 0 || now + next > now,
               "simulated clock at " << now << " s cannot resolve a " << next
                                     << " s drain");
}

}  // namespace ds::sim
