// The one monotonic clock every timestamp in the system reads.
//
// Trace events, telemetry spans, the child lifecycle's deadlines and the
// serve daemon's timers and postmortem events all take their seconds from
// here.
// A forked child and its parent read the same steady_clock, so events a
// child ships back stitch onto the parent's timeline without offsets.
#pragma once

#include <chrono>

namespace rlccd {

// Seconds on the steady clock since its (unspecified, boot-relative) epoch.
inline double mono_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace rlccd
