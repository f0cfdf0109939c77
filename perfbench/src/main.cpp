// perfbench: the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-out PATH]
//
// Runs one workload (see workloads.hpp and README.md) for about S seconds
// of reps on inputs generated from seed N, checks every rep's outputs, and
// prints one line per rep followed, as the last line of standard output,
// by one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Wall-clock figures are reported in reference seconds (reference.hpp): a
// fixed reference loop runs between reps, and each rep's CPU time is scaled
// by the loop's CPU time beside it, so the figures follow the program and
// not the speed the shared host happens to give it.  Each rep line prints
// the raw wall time as well.
//
// --trace 0 reports the end-to-end metrics; every rep runs untraced.
// --trace 1 reports the per-layer metrics.  Its reps alternate untraced,
// traced and (for workloads with program telemetry) telemetry-detached, so
// the tracing overhead and the telemetry overhead are measured in the same
// process.  --spans-out writes the traced reps' spans as JSON lines.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "probes.hpp"
#include "reference.hpp"
#include "support/stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_out;
};

/// Rounds (one rep of each mode) a run makes at least, whatever its time
/// budget: three untraced reps give a median; a traced run's round is two
/// or three reps long, so two rounds suffice there.
std::size_t min_rounds(bool trace) { return trace ? 2 : 3; }

const char* mode_name(RepMode m) {
  switch (m) {
    case RepMode::Untraced: return "untraced";
    case RepMode::Traced: return "traced";
    case RepMode::Detached: return "detached";
  }
  return "?";
}

/// Median, or 0 for no values (a layer that did not run).
double median_or_zero(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : grasp::median(xs);
}

/// Shortest round-trip decimal form: every digit the double carries.
std::string num(double x) {
  if (!std::isfinite(x)) x = 0.0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, x);
  return std::string(buf, r.ptr);
}

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = val;
      have[0] = true;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val.c_str(), &end, 10);
      have[1] = end != val.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val.c_str(), &end);
      have[2] = end != val.c_str() && *end == '\0' && o.seconds > 0.0;
    } else if (key == "--trace") {
      o.trace = val == "1";
      have[3] = val == "0" || val == "1";
    } else if (key == "--spans-out") {
      o.spans_out = val;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0) return std::nullopt;
  for (const bool h : have)
    if (!h) return std::nullopt;
  return o;
}

struct Rep {
  RepMode mode;
  RepResult result;
  bool ok = false;
  /// CPU seconds of the reference loop beside this rep: the mean of the
  /// runs just before and just after it.
  double ref_s = 0.0;

  /// Reference seconds per CPU second of this rep (see reference.hpp).
  [[nodiscard]] double scale() const {
    return ref_s > 0.0 ? kReferenceSeconds / ref_s : 0.0;
  }
  /// Tasks per reference second of the timed region.
  [[nodiscard]] double tasks_per_s() const {
    const double s = result.timed_cpu_s * scale();
    return ok && s > 0.0 ? static_cast<double>(result.tasks_done) / s : 0.0;
  }
  /// Set-up time in reference seconds.
  [[nodiscard]] double setup_s() const {
    return result.setup_cpu_s * scale();
  }
  [[nodiscard]] double wall_tasks_per_s() const {
    return ok && result.timed_s > 0.0
               ? static_cast<double>(result.tasks_done) / result.timed_s
               : 0.0;
  }
};

/// Median of one per-layer value over the reps of `mode`.
double layer_median(const std::vector<Rep>& reps, RepMode mode,
                    const std::string& key) {
  std::vector<double> xs;
  for (const Rep& r : reps) {
    if (r.mode != mode) continue;
    const auto it = r.result.layers.find(key);
    if (it != r.result.layers.end()) xs.push_back(it->second);
  }
  return median_or_zero(xs);
}

double tps_median(const std::vector<Rep>& reps, RepMode mode) {
  std::vector<double> xs;
  for (const Rep& r : reps)
    if (r.mode == mode) xs.push_back(r.tasks_per_s());
  return median_or_zero(xs);
}

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Per-layer metrics the workloads measure, in the order BENCHMARK.json
/// lists them.  A layer that does not run on a workload reports 0.
constexpr LayerMetric kLayerMetrics[] = {
    {"backend.wait_next_s", "s"},
    {"backend.submit_s", "s"},
    {"backend.completions_per_task", "count"},
    {"backend.timers_per_task", "count"},
    {"backend.ns_per_completion", "ns"},
    {"core.run_s", "s"},
    {"core.self_s", "s"},
    {"core.us_per_task", "us"},
    {"core.root_events_per_task", "count"},
    {"core.shard_events_per_task", "count"},
    {"mp.reduction_messages_per_task", "count"},
    {"svc.wait_all_s", "s"},
    {"svc.submit_s", "s"},
    {"svc.residual_s", "s"},
    {"svc.sys_s", "s"},
    {"svc.vcsw_per_job", "count"},
    {"svc.ivcsw_per_job", "count"},
    {"svc.peak_concurrent", "count"},
    {"svc.queue_wait_p50_vs", "vs"},
    {"svc.cache_hits", "count"},
    {"resil.crashes_detected", "count"},
    {"resil.chunks_lost", "count"},
    {"resil.tasks_redispatched", "count"},
    {"resil.failovers", "count"},
    {"resil.reissues", "count"},
    {"resil.useful_frac", "ratio"},
    {"obs.spans", "count"},
    {"obs.blame_s", "s"},
    {"obs.export_s", "s"},
    {"alloc.per_task", "count"},
    {"alloc.bytes_per_task", "B"},
};

int run(const Options& opt) {
  const Workload* wl = nullptr;
  for (const Workload& w : all_workloads())
    if (opt.workload == w.name) wl = &w;
  if (wl == nullptr) {
    std::cerr << "perfbench: unknown workload '" << opt.workload << "'\n";
    return 2;
  }

  std::vector<RepMode> cycle = {RepMode::Untraced};
  if (opt.trace) {
    cycle.push_back(RepMode::Traced);
    if (wl->has_program_telemetry) cycle.push_back(RepMode::Detached);
  }

  std::cout << "workload " << wl->name << " seed " << opt.seed << " seconds "
            << opt.seconds << " trace " << (opt.trace ? 1 : 0) << "\n"
            << "  why: " << wl->why << "\n";
  if (wl->note != nullptr) std::cout << "  note: " << wl->note << "\n";
  if (wl->one_cpu) {
    const int cpu = pin_to_current_cpu();
    if (cpu < 0) {
      std::cerr << "perfbench: cannot pin " << wl->name << " to one CPU\n";
      return 1;
    }
    std::cout << "  all threads on cpu " << cpu << "\n";
  }

  SpanLog spans(true);
  SpanLog no_spans(false);
  std::vector<Rep> reps;
  std::optional<Schedule> reference;
  const double start = wall_now();
  (void)reference_cpu_s();  // warm-up
  double ref_before = reference_cpu_s();
  double last_cycle_s = 0.0;
  const std::size_t rounds = min_rounds(opt.trace);
  for (std::size_t round = 0;; ++round) {
    const double elapsed = wall_now() - start;
    if (round >= rounds && elapsed + last_cycle_s > opt.seconds) break;
    const double cycle_start = wall_now();
    for (const RepMode mode : cycle) {
      Rep rep{mode, {}};
      try {
        rep.result = wl->run_rep(opt.seed, mode,
                                 mode == RepMode::Traced ? spans : no_spans);
      } catch (const std::exception& e) {
        // An engine that throws fails the rep; the run still reports.
        rep.result.attempted = rep.result.failed = 1;
        rep.result.errors.push_back(e.what());
      }
      if (!reference) reference = rep.result.schedule;
      if (!(rep.result.schedule == *reference))
        rep.result.errors.push_back(
            "virtual-time outcome differs from the first rep");
      rep.ok = rep.result.errors.empty();
      const double ref_after = reference_cpu_s();
      rep.ref_s = 0.5 * (ref_before + ref_after);
      ref_before = ref_after;
      const RepResult& r = rep.result;
      std::cout << "  rep " << reps.size() << " " << mode_name(mode)
                << " ref_s " << num(rep.ref_s) << " setup_s "
                << num(rep.setup_s()) << " tasks_per_s "
                << num(rep.tasks_per_s()) << " wall_s " << num(r.timed_s)
                << " wall_tasks_per_s " << num(rep.wall_tasks_per_s())
                << " cpu_s " << num(r.timed_cpu_s) << " user_s " << num(r.usage.user_s) << " sys_s "
                << num(r.usage.sys_s) << " ivcsw_per_job "
                << num(static_cast<double>(r.usage.ivcsw) /
                       static_cast<double>(std::max<std::size_t>(
                           r.attempted, 1)))
                << (rep.ok ? "" : " FAILED") << "\n";
      for (const std::string& e : r.errors)
        std::cout << "    error: " << e << "\n";
      reps.push_back(std::move(rep));
    }
    last_cycle_s = wall_now() - cycle_start;
  }

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> setups;
  for (const Rep& r : reps) {
    attempted += r.result.attempted;
    if (!r.ok)
      failed += r.result.failed > 0 ? r.result.failed : r.result.attempted;
    if (r.mode == RepMode::Untraced) setups.push_back(r.setup_s());
  }
  const bool correct = failed == 0 && attempted > 0;
  const Schedule& s = *reference;

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> e2e = {
      {"tasks_per_s", tps_median(reps, RepMode::Untraced), "1/s"},
      {"setup_s", median_or_zero(setups), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"makespan_vs", s.makespan_vs, "vs"},
      {"job_latency_p50_vs", s.latency_p50_vs, "vs"},
      {"job_latency_p95_vs", s.latency_p95_vs, "vs"},
      {"useful_mops_frac", s.useful_mops_frac, "ratio"},
  };
  const double failed_frac =
      attempted > 0 ? static_cast<double>(failed) / attempted : 1.0;
  std::cout << "end-to-end (" << reps.size() << " reps, latency samples "
            << s.latency_samples << " per rep)\n";
  for (const Metric& m : e2e)
    std::cout << "  " << m.name << " " << num(m.value) << " " << m.unit
              << "\n";
  std::cout << "  failed_frac " << num(failed_frac) << " ratio\n";

  std::vector<Metric> layers;
  if (opt.trace) {
    for (const LayerMetric& m : kLayerMetrics)
      layers.push_back(
          {m.name, layer_median(reps, RepMode::Traced, m.name), m.unit});
    double obs_overhead = 0.0;
    if (wl->has_program_telemetry) {
      const double detached =
          layer_median(reps, RepMode::Detached, "core.run_s");
      if (detached > 0.0)
        obs_overhead =
            layer_median(reps, RepMode::Untraced, "core.run_s") / detached -
            1.0;
    }
    layers.push_back({"obs.overhead_frac", obs_overhead, "ratio"});
    const double untraced = tps_median(reps, RepMode::Untraced);
    layers.push_back(
        {"trace.overhead_frac",
         untraced > 0.0 ? 1.0 - tps_median(reps, RepMode::Traced) / untraced
                        : 0.0,
         "ratio"});
    std::cout << "per-layer (median of traced reps)\n";
    for (const Metric& m : layers)
      std::cout << "  " << m.name << " " << num(m.value) << " " << m.unit
                << "\n";
    if (!opt.spans_out.empty()) {
      std::ofstream out(opt.spans_out);
      if (!out) {
        std::cerr << "perfbench: cannot write " << opt.spans_out << "\n";
        return 1;
      }
      spans.write_jsonl(out);
    }
  }

  const std::vector<Metric>& report = opt.trace ? layers : e2e;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.size(); ++i)
    std::cout << (i == 0 ? "" : ", ") << "\"" << report[i].name
              << "\": {\"value\": " << num(report[i].value)
              << ", \"unit\": \"" << report[i].unit << "\"}";
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> opt = parse(argc, argv);
  if (!opt) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans-out PATH]\n";
    return 2;
  }
  try {
    return run(*opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
