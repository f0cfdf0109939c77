// The host-speed reference: a fixed loop of benchmark-own code whose CPU
// time tracks how fast the host runs this kind of program right now.
//
// A shared host changes speed from minute to minute (other guests on the
// same cores and caches, clock changes), by far more than the program's
// own run-to-run noise.  The benchmark times this loop next to every rep
// and reports wall-clock figures in reference seconds: a rep's CPU time
// scaled by kReferenceSeconds over the loop's CPU time beside it.  The loop
// is not program code, so a change to the program moves the rep and not the
// reference.
#pragma once

namespace perfbench {

/// CPU time of one reference loop on the quiet 4-vCPU Xeon host the
/// benchmark was written on.  It only sets the scale: a reference second
/// is what one second was on that host.
inline constexpr double kReferenceSeconds = 0.045;

/// Run the reference loop once and return the process CPU seconds it took.
[[nodiscard]] double reference_cpu_s();

}  // namespace perfbench
