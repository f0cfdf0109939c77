// Measurement probes the benchmark wraps around the library's public calls.
//
// Nothing here reaches inside the program: every number comes from the
// benchmark's own side of a public interface.
//
//   TimedBackend   a core::Backend decorator.  It forwards every call to the
//                  real backend and counts calls per kind.  In a traced run
//                  it also reads the wall clock around each call and sums
//                  the busy time per kind, which SpanLog turns into child
//                  records of the enclosing layer span.
//   SpanLog        in-memory spans at the layer boundaries the benchmark
//                  crosses (setup, engine run, service wait, blame, export),
//                  written out as JSON lines when the run ends.
//   alloc_*        exact counts from the counting global operator new in
//                  alloc_counter.cpp, switched on only around traced reps.
//   ProcessUsage   getrusage deltas (user and sys time, voluntary and
//                  involuntary context switches) and peak RSS.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/backend.hpp"

namespace perfbench {

/// Seconds on the steady clock since an arbitrary fixed origin.
[[nodiscard]] double wall_now();
/// CPU seconds this process (every thread, user and kernel) has run.  Time
/// the host gives to other processes or other guests is not counted.
[[nodiscard]] double cpu_now();

/// Wall and process CPU time since construction.
class Stopwatch {
 public:
  Stopwatch() : wall0_(wall_now()), cpu0_(cpu_now()) {}
  [[nodiscard]] double wall_s() const { return wall_now() - wall0_; }
  [[nodiscard]] double cpu_s() const { return cpu_now() - cpu0_; }

 private:
  double wall0_;
  double cpu0_;
};

// ------------------------------------------------------------ allocations

struct AllocCount {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};

/// Switch the counting operator new on or off (off at start-up).
void alloc_counting(bool on);
/// Allocations and requested bytes counted while switched on.
[[nodiscard]] AllocCount alloc_count();

// ---------------------------------------------------------- process usage

struct ProcessUsage {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::int64_t vcsw = 0;   ///< voluntary context switches
  std::int64_t ivcsw = 0;  ///< involuntary context switches

  [[nodiscard]] static ProcessUsage now();
  [[nodiscard]] ProcessUsage since(const ProcessUsage& before) const;
};

/// High-water resident set of this process image, in MB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// Restrict the calling thread, and every thread it creates afterwards, to
/// the CPU it is running on.  Returns that CPU, or -1 when it cannot.
int pin_to_current_cpu();

// ------------------------------------------------------------------ spans

/// Busy time and call count of one backend call kind inside one span.
struct CallTally {
  std::uint64_t calls = 0;
  double busy_s = 0.0;
  double first_s = 0.0;  ///< start of the first call (traced runs)
  double last_s = 0.0;   ///< end of the last call (traced runs)

  void add(double start_s, double end_s);
};

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: a root
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  double busy_s = -1.0;    ///< summed call time (backend aggregates only)
  std::uint64_t calls = 0; ///< calls folded into an aggregate record
};

/// Spans kept in memory while the run lasts.  Disabled, every method is a
/// no-op returning span id 0.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  std::uint64_t begin(const char* name, std::uint64_t parent = 0);
  void end(std::uint64_t id);
  /// Append a closed aggregate record (a backend call kind) under `parent`.
  void aggregate(const char* name, std::uint64_t parent,
                 const CallTally& tally);

  /// One JSON object per line, times in seconds since the first span.
  void write_jsonl(std::ostream& out) const;

 private:
  bool enabled_;
  std::vector<SpanRecord> records_;
};

// ---------------------------------------------------------------- backend

/// Per-kind totals of one TimedBackend since construction.
struct BackendTally {
  CallTally wait_next;  ///< every wait_next call
  CallTally submit;     ///< submit_compute/transfer/timer/batch, cancel_timer
  CallTally progress;   ///< compute_progress
  std::uint64_t completions = 0;  ///< non-timer completions delivered
  std::uint64_t timers = 0;       ///< timer firings delivered
  double compute_mops = 0.0;      ///< Mops submitted as compute ops

  [[nodiscard]] double busy_s() const {
    return wait_next.busy_s + submit.busy_s + progress.busy_s;
  }
  /// Calls, busy time and counts made after `before` was taken.
  [[nodiscard]] BackendTally since(const BackendTally& before) const;
};

/// Decorator over a real backend.  Calls arrive one at a time (engines
/// and the service hand the backend over under their own locks), so the
/// tallies are plain fields.
class TimedBackend final : public grasp::core::Backend {
 public:
  /// `timed`: read the wall clock around calls (traced runs only).
  TimedBackend(grasp::core::Backend& inner, bool timed)
      : inner_(inner), timed_(timed) {}

  [[nodiscard]] grasp::Seconds now() const override;
  void submit_compute(grasp::core::OpToken token, grasp::NodeId node,
                      grasp::Mops work,
                      std::function<void()> body = {}) override;
  void submit_transfer(grasp::core::OpToken token, grasp::NodeId from,
                       grasp::NodeId to, grasp::Bytes payload) override;
  void submit_timer(grasp::core::OpToken token,
                    grasp::Seconds delay) override;
  bool cancel_timer(grasp::core::OpToken token) override;
  void submit_batch(std::vector<grasp::core::OpRequest> requests) override;
  [[nodiscard]] double compute_progress(
      grasp::core::OpToken token) const override;
  [[nodiscard]] std::optional<grasp::core::Completion> wait_next() override;
  [[nodiscard]] std::size_t in_flight() const override;

  [[nodiscard]] const BackendTally& tally() const { return total_; }
  /// Fold the calls made since the previous flush into `log` as aggregate
  /// children of `parent` (one record per call kind that was used).
  void flush(SpanLog& log, std::uint64_t parent);

 private:
  template <typename F>
  decltype(auto) timed_call(CallTally BackendTally::*kind, F&& call) const;

  grasp::core::Backend& inner_;
  bool timed_;
  // Mutated from the const compute_progress override as well.
  mutable BackendTally total_;
  mutable BackendTally since_flush_;
};

}  // namespace perfbench
