// The benchmark's workloads: inputs generated from a seed, one rep of the
// program over them, and the checks that every output is correct.
//
// A rep is one complete run of the workload: set-up (build the grid, churn
// timeline, task sets or arrival stream and the service), then the timed
// region (the engine call or the service's wait_all), then the correctness
// gate.  The benchmark repeats reps until its time is used.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "probes.hpp"

namespace perfbench {

enum class RepMode {
  Untraced,  ///< backend decorator counts only; no clock reads, no spans
  Traced,    ///< decorator times every call, spans kept, allocations counted
  Detached,  ///< untraced, and the program's own telemetry detached
};

/// The virtual-time outcome of a rep.  It is a pure function of the seed:
/// every rep of a run, traced or not, must reproduce it bit for bit.
struct Schedule {
  double makespan_vs = 0.0;
  double latency_p50_vs = 0.0;
  double latency_p95_vs = 0.0;
  double useful_mops_frac = 0.0;
  std::size_t latency_samples = 0;
  std::uint64_t fingerprint = 0;  ///< hash over every latency sample

  bool operator==(const Schedule&) const = default;
};

struct RepResult {
  /// Jobs as the latency metric counts them: submitted jobs for the job
  /// stream, tasks for the farm workloads.
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Tasks (farm tasks and pipeline items) completed exactly once.
  std::size_t tasks_done = 0;
  std::vector<std::string> errors;
  Schedule schedule;
  double setup_cpu_s = 0.0;  ///< process CPU time
  double timed_s = 0.0;      ///< wall
  double timed_cpu_s = 0.0;  ///< process CPU time
  ProcessUsage usage;  ///< over the timed region
  /// Per-layer values this rep measured, by per-layer metric name.
  std::map<std::string, double> layers;
};

struct Workload {
  const char* name;
  const char* why;
  const char* note;  ///< printed under `why`; may be null
  bool has_program_telemetry;  ///< Detached reps differ from Untraced ones
  /// Run every thread of the process on one CPU (see README.md: the
  /// service hands one turn between threads, and cross-CPU handoffs make
  /// its wall time bimodal).
  bool one_cpu;
  RepResult (*run_rep)(std::uint64_t seed, RepMode mode, SpanLog& log);
};

[[nodiscard]] const std::vector<Workload>& all_workloads();

}  // namespace perfbench
