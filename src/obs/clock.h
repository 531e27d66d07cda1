#ifndef TASFAR_OBS_CLOCK_H_
#define TASFAR_OBS_CLOCK_H_

#include <cstdint>

namespace tasfar::obs {

/// Microseconds elapsed on the monotonic (steady) clock since the first
/// call in this process. All observability timestamps — trace spans, log
/// prefixes, latency histograms — derive from this single clock, so they
/// are mutually comparable and immune to wall-clock jumps.
///
/// src/obs is the only place in src/ allowed to touch std::chrono (the
/// timing-discipline analyzer rule enforces this); everything else times
/// itself through this function or TASFAR_TRACE_SPAN.
uint64_t MonotonicMicros();

/// Small dense id of the calling thread (0, 1, 2, ... in first-call
/// order; stable for the thread's lifetime). Used instead of the opaque
/// std::thread::id so trace files and log lines stay readable.
int CurrentThreadId();

}  // namespace tasfar::obs

#endif  // TASFAR_OBS_CLOCK_H_
