#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <unordered_map>
#include <variant>

#include "core/backend_sim.hpp"
#include "core/baselines.hpp"
#include "core/hier_farm.hpp"
#include "core/task_farm.hpp"
#include "gridsim/churn.hpp"
#include "gridsim/load_model.hpp"
#include "gridsim/scenarios.hpp"
#include "obs/critical_path.hpp"
#include "obs/export_chrome.hpp"
#include "obs/export_jsonl.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "svc/grid_service.hpp"
#include "workloads/applications.hpp"
#include "workloads/generators.hpp"

namespace perfbench {
namespace {

using namespace grasp;

/// Independent input streams (grid, tasks, arrivals, churn) from one seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  SplitMix64 mix(seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
  mix.next();
  return mix.next();
}

std::uint64_t fingerprint(const std::vector<double>& xs) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the raw bits
  for (const double x : xs) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

/// Fill the latency part of the schedule (type-7 quantiles, bench_e14's
/// convention); p95 needs >= 10 samples past it.
void set_latencies(Schedule& s, const std::vector<double>& latencies,
                   RepResult& out) {
  if (latencies.empty()) {
    out.errors.push_back("no latency samples");
    return;
  }
  s.latency_samples = latencies.size();
  s.latency_p50_vs = quantile(latencies, 0.50);
  s.latency_p95_vs = quantile(latencies, 0.95);
  s.fingerprint = fingerprint(latencies);
  if (static_cast<double>(latencies.size()) * 0.05 < 10.0)
    out.errors.push_back("fewer than 10 latency samples beyond p95");
}

/// Per-task first-completion times off an engine trace, in task-set
/// order.  Every task must appear.
std::vector<double> first_completions(const gridsim::TraceRecorder& trace,
                                      const workloads::TaskSet& tasks,
                                      RepResult& out) {
  std::unordered_map<std::uint64_t, double> first;
  first.reserve(tasks.size());
  for (const gridsim::TraceEvent& e : trace.events()) {
    if (e.kind != gridsim::TraceEventKind::TaskCompleted) continue;
    first.try_emplace(e.task.value, e.at.value);
  }
  std::vector<double> latencies;
  latencies.reserve(tasks.size());
  for (const workloads::TaskSpec& t : tasks.tasks) {
    const auto it = first.find(t.id.value);
    if (it == first.end()) {
      ++out.failed;
      continue;
    }
    latencies.push_back(it->second);
  }
  if (out.failed > 0)
    out.errors.push_back(std::to_string(out.failed) +
                         " tasks never completed");
  return latencies;
}

/// Backend and allocation metrics every workload reports.
void backend_layers(RepResult& out, const BackendTally& d,
                    const AllocCount& alloc, std::size_t tasks) {
  const auto n = static_cast<double>(tasks);
  const auto delivered = static_cast<double>(d.completions + d.timers);
  out.layers["backend.wait_next_s"] = d.wait_next.busy_s;
  out.layers["backend.submit_s"] = d.submit.busy_s;
  out.layers["backend.completions_per_task"] =
      static_cast<double>(d.completions) / n;
  out.layers["backend.timers_per_task"] = static_cast<double>(d.timers) / n;
  out.layers["backend.ns_per_completion"] =
      delivered > 0.0 ? d.wait_next.busy_s / delivered * 1e9 : 0.0;
  out.layers["alloc.per_task"] = static_cast<double>(alloc.allocs) / n;
  out.layers["alloc.bytes_per_task"] = static_cast<double>(alloc.bytes) / n;
}

void core_layers(RepResult& out, double run_s, const BackendTally& d,
                 std::size_t tasks) {
  out.layers["core.run_s"] = run_s;
  out.layers["core.self_s"] = run_s - d.busy_s();
  out.layers["core.us_per_task"] =
      (run_s - d.busy_s()) / static_cast<double>(tasks) * 1e6;
}

/// A heterogeneous pool whose aggregate capacity does not depend on the
/// seed: node speeds are a fixed geometric ladder from 50 to 400 Mops/s,
/// dealt to nodes in an `order_seed`-shuffled order, each node under the
/// same small constant background load.  Nodes alternate between two sites
/// joined by a WAN link with `link_seed` random-walk contention (the link
/// model of gridsim::make_grid).
gridsim::Grid ladder_grid(std::size_t nodes, std::uint64_t order_seed,
                          std::uint64_t link_seed) {
  gridsim::GridBuilder builder;
  const SiteId sites[2] = {builder.add_site("site0"),
                           builder.add_site("site1")};
  gridsim::RandomWalkLoad::Params wan;
  wan.initial = 0.3;
  wan.mean = 0.5;
  wan.reversion = 0.05;
  wan.step_stddev = 0.15;
  wan.max_load = 4.0;
  wan.slot = Seconds{2.0};
  builder.set_inter_site_link(
      sites[0], sites[1], Seconds{0.02}, BytesPerSecond{12.5e6},
      std::make_unique<gridsim::RandomWalkLoad>(wan, link_seed));
  std::vector<double> speeds(nodes);
  for (std::size_t i = 0; i < nodes; ++i)
    speeds[i] = 50.0 * std::pow(8.0, static_cast<double>(i) /
                                         static_cast<double>(nodes - 1));
  Rng order(order_seed);
  for (std::size_t i = nodes - 1; i > 0; --i)
    std::swap(speeds[i], speeds[order.uniform_index(i + 1)]);
  for (std::size_t i = 0; i < nodes; ++i)
    builder.add_node(sites[i % 2], speeds[i],
                     std::make_unique<gridsim::ConstantLoad>(0.25));
  return builder.build();
}

/// Brackets a timed region: wall and CPU time, rusage, backend tally and
/// (traced reps only) allocations.
class Region {
 public:
  Region(const TimedBackend& backend, RepMode mode)
      : backend_(backend), traced_(mode == RepMode::Traced) {
    tally_ = backend_.tally();
    usage_ = ProcessUsage::now();
    if (traced_) {
      alloc_ = alloc_count();
      alloc_counting(true);
    }
    clock_ = Stopwatch();
  }

  void stop() {
    elapsed_ = clock_.wall_s();
    cpu_s_ = clock_.cpu_s();
    if (traced_) {
      alloc_counting(false);
      const AllocCount now = alloc_count();
      alloc_ = {now.allocs - alloc_.allocs, now.bytes - alloc_.bytes};
    } else {
      alloc_ = {};
    }
    usage_ = ProcessUsage::now().since(usage_);
    tally_ = backend_.tally().since(tally_);
  }

  [[nodiscard]] double elapsed() const { return elapsed_; }
  [[nodiscard]] double cpu_s() const { return cpu_s_; }
  [[nodiscard]] const BackendTally& tally() const { return tally_; }
  [[nodiscard]] const ProcessUsage& usage() const { return usage_; }
  [[nodiscard]] const AllocCount& alloc() const { return alloc_; }

 private:
  const TimedBackend& backend_;
  bool traced_;
  Stopwatch clock_;
  double elapsed_ = 0.0;
  double cpu_s_ = 0.0;
  BackendTally tally_;
  ProcessUsage usage_;
  AllocCount alloc_;
};

// ============================================================= hier_scale
//
// One HierFarm run: 1 root + 4096 heterogeneous workers, 8W irregular
// tasks (the largest bench_e15 row).  No churn, no program telemetry, no
// threads: the event queue, SimBackend, the HierFarm engine and the mp
// reduction tree do the work.

constexpr std::size_t kHierWorkers = 4096;

RepResult hier_scale(std::uint64_t seed, RepMode mode, SpanLog& log) {
  RepResult out;
  const std::uint64_t rep_span = log.begin("rep");
  const std::uint64_t setup_span = log.begin("setup", rep_span);
  const Stopwatch setup_clock;

  gridsim::GridBuilder builder;
  const SiteId site = builder.add_site("a");
  builder.add_node(site, 100.0);  // root: coordination only
  // bench_e15's speed cycle, dealt to workers in a seed-shuffled order.
  const double cycle[] = {50.0, 100.0, 200.0, 400.0};
  std::vector<double> speeds(kHierWorkers);
  for (std::size_t i = 0; i < kHierWorkers; ++i) speeds[i] = cycle[i % 4];
  Rng speed_rng(derive(seed, 1));
  for (std::size_t i = kHierWorkers - 1; i > 0; --i)
    std::swap(speeds[i], speeds[speed_rng.uniform_index(i + 1)]);
  for (const double speed : speeds) builder.add_node(site, speed);
  const gridsim::Grid grid = builder.build();

  workloads::TaskSetParams tp;
  tp.count = 8 * kHierWorkers;
  tp.mean_mops = 2000.0;
  // Uniform in [1000, 3000]: irregular but bounded, so the makespan is not
  // set by one extreme task (a lognormal tail moves it by a third between
  // seeds).
  tp.distribution = workloads::CostDistribution::Uniform;
  tp.seed = derive(seed, 2);
  const workloads::TaskSet tasks = workloads::make_task_set(tp);

  core::SimBackend sim(grid);
  TimedBackend backend(sim, mode == RepMode::Traced);
  core::HierFarm farm{core::HierFarmParams{}};
  out.setup_cpu_s = setup_clock.cpu_s();
  log.end(setup_span);

  const std::uint64_t run_span = log.begin("core.run", rep_span);
  Region region(backend, mode);
  const core::HierFarmReport r =
      farm.run(backend, grid, grid.node_ids(), tasks);
  region.stop();
  backend.flush(log, run_span);
  log.end(run_span);
  log.end(rep_span);

  out.timed_s = region.elapsed();
  out.timed_cpu_s = region.cpu_s();
  out.usage = region.usage();
  out.attempted = tasks.size();
  if (r.tasks_completed + r.calibration_tasks != tasks.size())
    out.errors.push_back("conservation: completed " +
                         std::to_string(r.tasks_completed) + " + calibration " +
                         std::to_string(r.calibration_tasks) + " != " +
                         std::to_string(tasks.size()));
  if (r.results_lost != 0 || r.redispatched != 0 || r.zombie_completions != 0)
    out.errors.push_back("work lost on a churn-free grid");

  const std::vector<double> latencies =
      first_completions(r.trace, tasks, out);
  out.schedule.makespan_vs = r.makespan.value;
  // HierFarm keeps no ResilienceReport; on this churn-free grid nothing
  // is lost (checked above), so all submitted task mops are useful.
  out.schedule.useful_mops_frac = 1.0;
  set_latencies(out.schedule, latencies, out);
  if (out.errors.empty()) out.tasks_done = tasks.size();

  const std::size_t n = tasks.size();
  backend_layers(out, region.tally(), region.alloc(), n);
  core_layers(out, region.elapsed(), region.tally(), n);
  out.layers["core.root_events_per_task"] =
      static_cast<double>(r.root_events) / static_cast<double>(n);
  out.layers["core.shard_events_per_task"] =
      static_cast<double>(r.shard_events) / static_cast<double>(n);
  out.layers["mp.reduction_messages_per_task"] =
      static_cast<double>(r.reduction_messages) / static_cast<double>(n);
  return out;
}

// ============================================================= farm_churn
//
// One TaskFarm run over a churning volunteer pool in the style of
// bench_e13: harsh worker MTBF, late-joining spares, checkpoints, accrual
// detection, and a hot standby for a farmer that churns too.  The
// program's own telemetry is attached the way a user diagnosing the run
// would attach it (detail spans, flight recorder, SLO watchdogs), and the
// timed region ends with the blame analysis and the Chrome/JSONL exports.

constexpr std::size_t kChurnNodes = 128;
constexpr std::size_t kChurnSpares = 32;
constexpr std::size_t kChurnTasks = 100000;
constexpr double kChurnHorizon = 3000.0;  // well past the ~800 s makespan
/// Nodes 1..3 are dedicated hosts that never churn, so the hot standby
/// (recruited from the lowest ids) is stable: the farmer fails over on its
/// own schedule only, instead of a promoted volunteer failing over again
/// and again (which moves the makespan by several percent between seeds).
constexpr std::size_t kStableNodes = 4;

/// Worker churn on every initial member from kStableNodes on, spares
/// joining over the first minutes, and a separate failure schedule for
/// the farmer on node 0 (one hot standby takes over when it dies).
/// Crashed nodes stall their in-flight work until they return.
gridsim::Grid churn_grid(std::uint64_t seed) {
  gridsim::Grid grid =
      ladder_grid(kChurnNodes + kChurnSpares, derive(seed, 3), derive(seed, 10));

  gridsim::ChurnModel::Params workers;
  workers.mtbf = 150.0;
  workers.crash_fraction = 0.75;
  // Volunteers always come back: the pool stays at its steady-state size
  // instead of draining, so the outcome does not hinge on which fast
  // nodes happened to leave for good.
  workers.rejoin_probability = 1.0;
  workers.mean_rejoin_delay = Seconds{60.0};
  workers.horizon = Seconds{kChurnHorizon};
  workers.warmup = Seconds{30.0};
  workers.seed = derive(seed, 4);
  std::vector<NodeId> churnable;
  for (std::size_t i = kStableNodes; i < kChurnNodes; ++i)
    churnable.push_back(NodeId{i});
  std::vector<gridsim::ChurnEvent> events =
      gridsim::ChurnModel::generate(churnable, workers).events();

  gridsim::ChurnModel::Params farmer = workers;
  farmer.mtbf = 200.0;
  farmer.seed = derive(seed, 5);
  const gridsim::ChurnTimeline farmer_events =
      gridsim::ChurnModel::generate({NodeId{0}}, farmer);
  events.insert(events.end(), farmer_events.events().begin(),
                farmer_events.events().end());

  std::vector<NodeId> absent;
  Rng join_rng(derive(seed, 6));
  for (std::size_t i = kChurnNodes; i < kChurnNodes + kChurnSpares; ++i) {
    absent.push_back(NodeId{i});
    events.push_back({Seconds{30.0 + join_rng.uniform(0.0, 300.0)},
                      gridsim::ChurnEventKind::Join, NodeId{i}});
  }
  gridsim::ChurnTimeline timeline(std::move(events), std::move(absent));
  gridsim::apply_crash_downtime(grid, timeline);
  grid.set_churn(std::move(timeline));
  return grid;
}

core::FarmParams churn_params() {
  core::FarmParams p = core::make_adaptive_farm_params();
  p.chunk_size = 4;
  p.resilience.enabled = true;
  p.resilience.detector.heartbeat_period = Seconds{1.0};
  p.resilience.detector.timeout = Seconds{5.0};
  p.resilience.detector.mode = resil::DetectionMode::Accrual;
  p.resilience.detector.min_effective = Seconds{4.5};
  p.resilience.checkpoint_period = Seconds{8.0};
  p.resilience.failover.standby_count = 1;
  p.resilience.failover.handshake = Seconds{2.0};
  return p;
}

RepResult farm_churn(std::uint64_t seed, RepMode mode, SpanLog& log) {
  RepResult out;
  const std::uint64_t rep_span = log.begin("rep");
  const std::uint64_t setup_span = log.begin("setup", rep_span);
  const Stopwatch setup_clock;

  gridsim::Grid grid = churn_grid(seed);
  workloads::TaskSetParams tp;
  tp.count = kChurnTasks;
  tp.mean_mops = 120.0;
  tp.distribution = workloads::CostDistribution::Uniform;
  tp.seed = derive(seed, 9);
  const workloads::TaskSet tasks = workloads::make_task_set(tp);

  const bool attach = mode != RepMode::Detached;
  obs::Telemetry telemetry(/*detail=*/true);
  obs::FlightRecorder flight;
  core::FarmParams params = churn_params();
  if (attach) {
    telemetry.flight = &flight;
    params.telemetry = &telemetry;
    params.slos.heartbeat_staleness_s = 10.0;
    params.slos.detection_latency_s = 8.0;
    params.slos.calibration_stall_s = 60.0;
  }
  core::SimBackend sim(grid);
  TimedBackend backend(sim, mode == RepMode::Traced);
  core::TaskFarm farm(params);
  out.setup_cpu_s = setup_clock.cpu_s();
  log.end(setup_span);

  const std::uint64_t timed_span = log.begin("timed", rep_span);
  const std::uint64_t run_span = log.begin("core.run", timed_span);
  Region region(backend, mode);
  const double run_start = wall_now();
  const core::FarmReport r = farm.run(backend, grid, grid.node_ids(), tasks);
  const double run_s = wall_now() - run_start;
  backend.flush(log, run_span);
  log.end(run_span);

  double blame_s = 0.0;
  double export_s = 0.0;
  std::size_t blame_rows = 0;
  std::size_t export_bytes = 0;
  if (attach) {
    const std::uint64_t blame_span = log.begin("obs.blame", timed_span);
    const double t0 = wall_now();
    const obs::BlameReport blame =
        obs::analyze_blame(telemetry.spans.records(), r.makespan.value);
    blame_s = wall_now() - t0;
    log.end(blame_span);
    blame_rows = blame.nodes.size();
    if (std::abs(blame.total.total() - r.makespan.value) >
        1e-6 * r.makespan.value)
      out.errors.push_back("blame causes do not sum to the makespan");

    const std::uint64_t export_span = log.begin("obs.export", timed_span);
    const double t1 = wall_now();
    const std::string chrome =
        obs::chrome_trace_json(telemetry.spans.records());
    std::ostringstream jsonl;
    {
      obs::JsonlWriter writer(jsonl);
      writer.write_metrics(telemetry.metrics.snapshot());
      writer.write_spans(telemetry.spans.records());
    }
    export_bytes = chrome.size() + jsonl.str().size();
    export_s = wall_now() - t1;
    log.end(export_span);
  }
  region.stop();
  log.end(timed_span);
  log.end(rep_span);

  out.timed_s = region.elapsed();
  out.timed_cpu_s = region.cpu_s();
  out.usage = region.usage();
  out.attempted = tasks.size();
  const std::size_t lost =
      r.trace.count(gridsim::TraceEventKind::TaskResultLost);
  if (r.tasks_completed + r.calibration_tasks != tasks.size() ||
      r.trace.count(gridsim::TraceEventKind::TaskCompleted) !=
          tasks.size() + lost)
    out.errors.push_back("conservation: completed " +
                         std::to_string(r.tasks_completed) + " + calibration " +
                         std::to_string(r.calibration_tasks) + " != " +
                         std::to_string(tasks.size()));
  if (attach && (blame_rows == 0 || export_bytes == 0))
    out.errors.push_back("telemetry produced no blame rows or exports");

  const std::vector<double> latencies =
      first_completions(r.trace, tasks, out);
  const double set_mops = tasks.total_work().value;
  out.schedule.makespan_vs = r.makespan.value;
  out.schedule.useful_mops_frac =
      set_mops / (set_mops + r.resilience.wasted_mops);
  set_latencies(out.schedule, latencies, out);
  if (out.errors.empty()) out.tasks_done = tasks.size();

  const std::size_t n = tasks.size();
  // Blame and export make no backend calls: the region's tally is the
  // engine's.
  backend_layers(out, region.tally(), region.alloc(), n);
  core_layers(out, run_s, region.tally(), n);
  const resil::ResilienceReport& res = r.resilience;
  out.layers["resil.crashes_detected"] =
      static_cast<double>(res.crashes_detected);
  out.layers["resil.chunks_lost"] = static_cast<double>(res.chunks_lost);
  out.layers["resil.tasks_redispatched"] =
      static_cast<double>(res.tasks_redispatched);
  out.layers["resil.failovers"] = static_cast<double>(res.failovers);
  out.layers["resil.reissues"] = static_cast<double>(r.reissues);
  out.layers["resil.useful_frac"] =
      region.tally().compute_mops > 0.0
          ? set_mops / region.tally().compute_mops
          : 0.0;
  if (attach) {
    out.layers["obs.spans"] =
        static_cast<double>(telemetry.spans.records().size());
    out.layers["obs.blame_s"] = blame_s;
    out.layers["obs.export_s"] = export_s;
  }
  return out;
}

// ============================================================== jobstream
//
// A GridService over a 16-node heterogeneous pool receives an open-loop
// Poisson arrival stream with a diurnal profile (bench_e14's shape).  The
// stream mixes the three farm applications with image-pipeline jobs, and
// the calibration cache is on.  Arrivals enter through submit_at on the
// virtual clock, so the generator can never run late.

/// Running tenants are capped at 3 so that the tenant threads plus the
/// scheduling thread fit on a 4-core host.  The cap is a constant, not
/// derived from the host, so the schedule stays a function of the seed.
constexpr std::size_t kMaxRunningTenants = 3;
constexpr std::size_t kPipelineKind = workloads::application_mix_size();
constexpr std::size_t kPipelineItems = 10;
constexpr std::uint64_t kPoolOrderSeed = 97;
/// Job kinds in arrival order: Mandelbrot, alignment, Mandelbrot,
/// quadrature, pipeline (bench_e14's 2:1:1 farm mix plus pipelines).  A
/// fixed cycle instead of a random draw per arrival keeps the mix the same
/// for every seed; a drawn mix moves the median latency between the fast
/// and the slow job kinds.
constexpr std::size_t kKindCycle[] = {0, 1, 0, 2, kPipelineKind};

RepResult jobstream(std::uint64_t seed, RepMode mode, SpanLog& log) {
  RepResult out;
  const std::uint64_t rep_span = log.begin("rep");
  const std::uint64_t setup_span = log.begin("setup", rep_span);
  const Stopwatch setup_clock;

  // The service's pool is its fixed resource: the node order (which node
  // is fastest, which site it sits in) stays the same for every seed, and
  // only the WAN contention follows the seed.  With a seed-shuffled order
  // the job latencies spread by a fifth between seeds.
  const gridsim::Grid grid = ladder_grid(16, kPoolOrderSeed, derive(seed, 7));

  workloads::JobArrivalParams ap;
  // About 576 jobs.  The rate keeps the three tenant slots mostly free
  // outside the diurnal crests: once jobs queue behind long pipelines, the
  // latency percentiles change by a quarter or more from seed to seed.
  ap.horizon = Seconds{19200.0};
  ap.base_rate_per_s = 0.06;
  ap.diurnal_amplitude = 0.6;
  ap.diurnal_period = Seconds{240.0};
  ap.diurnal_phase = 0.75;
  ap.seed = derive(seed, 8);
  const std::vector<workloads::JobArrival> arrivals =
      workloads::make_job_arrivals(ap);

  core::SimBackend sim(grid);
  TimedBackend backend(sim, mode == RepMode::Traced);
  svc::GridService::Params params;
  params.max_concurrent_jobs = kMaxRunningTenants;
  params.use_calibration_cache = true;
  svc::GridService service(backend, grid, grid.node_ids(), params);

  // Generate every job first, then submit them all: svc.submit_s times
  // the service's submit_at calls only.
  struct Arrival {
    Seconds at;
    svc::JobOptions options;
    std::variant<svc::FarmJob, svc::PipelineJob> job;
  };
  const workloads::PipelineSpec pipeline = workloads::make_image_pipeline({});
  std::vector<Arrival> jobs;
  std::vector<std::size_t> sizes;
  double set_mops = 0.0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const std::size_t kind = kKindCycle[i % std::size(kKindCycle)];
    Arrival a{arrivals[i].at, {}, {}};
    a.options.max_share = 0.45;
    if (kind == kPipelineKind) {
      a.options.name = "image-pipeline";
      a.options.min_nodes = pipeline.depth();
      a.job = svc::PipelineJob{core::PipelineParams{}, pipeline,
                               kPipelineItems};
      sizes.push_back(kPipelineItems);
      set_mops += pipeline.work_per_item().value *
                  static_cast<double>(kPipelineItems);
    } else {
      const auto app = static_cast<workloads::ApplicationKind>(kind);
      workloads::TaskSet tasks =
          workloads::make_application_task_set(app, arrivals[i].seed);
      a.options.name = workloads::to_string(app);
      a.options.min_nodes = 2;
      sizes.push_back(tasks.size());
      set_mops += tasks.total_work().value;
      a.job = svc::FarmJob{core::make_adaptive_farm_params(), std::move(tasks)};
    }
    jobs.push_back(std::move(a));
  }

  std::vector<svc::JobHandle> handles;
  handles.reserve(jobs.size());
  const std::uint64_t submit_span = log.begin("svc.submit", setup_span);
  const double submit_start = wall_now();
  for (Arrival& a : jobs)
    handles.push_back(std::visit(
        [&](auto& job) {
          return service.submit_at(a.at, std::move(job), a.options);
        },
        a.job));
  const double submit_s = wall_now() - submit_start;
  backend.flush(log, submit_span);
  log.end(submit_span);
  out.setup_cpu_s = setup_clock.cpu_s();
  log.end(setup_span);

  const std::uint64_t wait_span = log.begin("svc.wait_all", rep_span);
  Region region(backend, mode);
  service.wait_all();
  region.stop();
  backend.flush(log, wait_span);
  log.end(wait_span);
  log.end(rep_span);

  out.timed_s = region.elapsed();
  out.timed_cpu_s = region.cpu_s();
  out.usage = region.usage();
  out.attempted = handles.size();
  std::vector<double> latencies;
  std::vector<double> queue_waits;
  double makespan = 0.0;
  double wasted = 0.0;
  std::size_t tasks_done = 0;
  for (std::size_t j = 0; j < handles.size(); ++j) {
    const svc::JobHandle& h = handles[j];
    bool ok = h.status() == svc::JobStatus::Completed;
    if (ok && h.has_farm_report()) {
      const core::FarmReport& r = h.farm_report();
      ok = r.tasks_completed + r.calibration_tasks == sizes[j];
      wasted += r.resilience.wasted_mops;
    } else if (ok && h.has_pipeline_report()) {
      const core::PipelineReport& r = h.pipeline_report();
      ok = r.items_completed == sizes[j] && r.output_in_order;
      wasted += r.resilience.wasted_mops;
    }
    if (!ok) {
      ++out.failed;
      continue;
    }
    tasks_done += sizes[j];
    latencies.push_back((h.finished_at() - h.submitted_at()).value);
    queue_waits.push_back(h.queue_wait_s());
    makespan = std::max(makespan, h.finished_at().value);
  }
  if (out.failed > 0 || service.jobs_failed() != 0 ||
      service.jobs_rejected() != 0)
    out.errors.push_back(std::to_string(out.failed) +
                         " jobs failed, were rejected or lost tasks");
  out.schedule.makespan_vs = makespan;
  out.schedule.useful_mops_frac = set_mops / (set_mops + wasted);
  set_latencies(out.schedule, latencies, out);
  if (out.errors.empty()) out.tasks_done = tasks_done;

  const auto job_count = static_cast<double>(handles.size());
  const BackendTally& d = region.tally();
  backend_layers(out, d, region.alloc(), tasks_done);
  out.layers["svc.wait_all_s"] = region.elapsed();
  out.layers["svc.submit_s"] = submit_s;
  out.layers["svc.residual_s"] = region.elapsed() - d.busy_s();
  out.layers["svc.sys_s"] = region.usage().sys_s;
  out.layers["svc.vcsw_per_job"] =
      static_cast<double>(region.usage().vcsw) / job_count;
  out.layers["svc.ivcsw_per_job"] =
      static_cast<double>(region.usage().ivcsw) / job_count;
  out.layers["svc.peak_concurrent"] =
      static_cast<double>(service.max_concurrent_observed());
  out.layers["svc.queue_wait_p50_vs"] =
      queue_waits.empty() ? 0.0 : median(queue_waits);
  out.layers["svc.cache_hits"] =
      static_cast<double>(service.calibration_cache().hits());
  return out;
}

}  // namespace

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> list = {
      {"jobstream",
       "open-loop job stream through GridService: the svc tenant handoff "
       "dominates",
       "arrivals enter through submit_at on the virtual clock, so the "
       "generator's lateness is 0 by construction",
       false, true, jobstream},
      {"hier_scale",
       "one 4096-worker HierFarm run: event queue, SimBackend and engine "
       "throughput at scale",
       nullptr, false, false, hier_scale},
      {"farm_churn",
       "one TaskFarm run over a churning pool with telemetry attached: "
       "resil recovery and obs bookkeeping",
       nullptr, true, false, farm_churn},
  };
  return list;
}

}  // namespace perfbench
