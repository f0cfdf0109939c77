#include "svc/grid_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "core/backend_sim.hpp"
#include "core/backend_thread.hpp"
#include "core/baselines.hpp"
#include "core/task_farm.hpp"
#include "gridsim/scenarios.hpp"
#include "obs/telemetry.hpp"
#include "workloads/applications.hpp"
#include "workloads/generators.hpp"

namespace grasp::svc {
namespace {

workloads::TaskSet tasks(std::size_t n, std::uint64_t seed = 42) {
  workloads::TaskSetParams p;
  p.count = n;
  p.mean_mops = 100.0;
  p.cv = 0.6;
  p.seed = seed;
  return workloads::make_task_set(p);
}

core::FarmReport run_standalone(const gridsim::Grid& grid,
                                const workloads::TaskSet& ts) {
  core::SimBackend backend(grid);
  core::TaskFarm farm(core::make_adaptive_farm_params());
  return farm.run_engine(backend, grid, grid.node_ids(), ts);
}

void expect_reports_equal(const core::FarmReport& a,
                          const core::FarmReport& b) {
  EXPECT_DOUBLE_EQ(a.makespan.value, b.makespan.value);
  EXPECT_EQ(a.tasks_completed, b.tasks_completed);
  EXPECT_EQ(a.calibration_tasks, b.calibration_tasks);
  EXPECT_EQ(a.recalibrations, b.recalibrations);
  EXPECT_EQ(a.reissues, b.reissues);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.final_chosen, b.final_chosen);
  EXPECT_EQ(a.trace.events().size(), b.trace.events().size());
}

TEST(GridService, InlineSingleJobMatchesRunEngine) {
  gridsim::ScenarioParams sp;
  sp.node_count = 8;
  sp.dynamics = gridsim::Dynamics::Mixed;
  sp.seed = 11;
  const gridsim::Grid grid = gridsim::make_grid(sp);
  const workloads::TaskSet ts = tasks(200);
  const core::FarmReport standalone = run_standalone(grid, ts);

  core::SimBackend backend(grid);
  GridService::Params params;
  params.use_calibration_cache = false;  // wrapper configuration
  GridService service(backend, grid, grid.node_ids(), params);
  const JobHandle handle =
      service.submit(FarmJob{core::make_adaptive_farm_params(), ts});
  service.wait(handle);

  EXPECT_EQ(handle.status(), JobStatus::Completed);
  expect_reports_equal(handle.farm_report(), standalone);
  EXPECT_EQ(service.max_concurrent_observed(), 1u);
}

TEST(GridService, ForceThreadedSingleJobMatchesRunEngine) {
  // Same engine, same grid, but through a job fiber + token-translating
  // proxy + turn handoff.  The completion stream the engine sees must be
  // identical, so the whole report must match the standalone run.
  gridsim::ScenarioParams sp;
  sp.node_count = 8;
  sp.dynamics = gridsim::Dynamics::Mixed;
  sp.seed = 11;
  const gridsim::Grid grid = gridsim::make_grid(sp);
  const workloads::TaskSet ts = tasks(200);
  const core::FarmReport standalone = run_standalone(grid, ts);

  core::SimBackend backend(grid);
  GridService::Params params;
  params.use_calibration_cache = false;
  params.force_threaded = true;
  GridService service(backend, grid, grid.node_ids(), params);
  const JobHandle handle =
      service.submit(FarmJob{core::make_adaptive_farm_params(), ts});
  service.wait(handle);

  EXPECT_EQ(handle.status(), JobStatus::Completed);
  expect_reports_equal(handle.farm_report(), standalone);
}

TEST(GridService, WrapperRunMatchesRunEngine) {
  gridsim::ScenarioParams sp;
  sp.node_count = 8;
  sp.dynamics = gridsim::Dynamics::Mixed;
  sp.seed = 23;
  const gridsim::Grid grid = gridsim::make_grid(sp);
  const workloads::TaskSet ts = tasks(180);
  const core::FarmReport standalone = run_standalone(grid, ts);

  core::SimBackend backend(grid);
  core::TaskFarm farm(core::make_adaptive_farm_params());
  const core::FarmReport wrapped =
      farm.run(backend, grid, grid.node_ids(), ts);
  expect_reports_equal(wrapped, standalone);
}

TEST(GridService, TwoTenantsRunConcurrentlyOnDisjointAllocations) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(8, 100.0);
  core::SimBackend backend(grid);
  GridService service(backend, grid, grid.node_ids());

  JobOptions opt_a;
  opt_a.name = "tenant-a";
  opt_a.max_share = 0.5;
  JobOptions opt_b;
  opt_b.name = "tenant-b";
  opt_b.max_share = 0.5;
  const JobHandle a = service.submit(
      FarmJob{core::make_adaptive_farm_params(), tasks(120, 1)}, opt_a);
  const JobHandle b = service.submit(
      FarmJob{core::make_adaptive_farm_params(), tasks(120, 2)}, opt_b);
  service.wait_all();

  ASSERT_EQ(a.status(), JobStatus::Completed);
  ASSERT_EQ(b.status(), JobStatus::Completed);
  EXPECT_EQ(service.max_concurrent_observed(), 2u);
  EXPECT_EQ(a.nodes().size(), 4u);
  EXPECT_EQ(b.nodes().size(), 4u);
  std::unordered_set<NodeId> seen(a.nodes().begin(), a.nodes().end());
  for (const NodeId n : b.nodes()) EXPECT_EQ(seen.count(n), 0u);
  // Each tenant's report accounts for exactly its own tasks.
  EXPECT_EQ(a.farm_report().tasks_completed +
                a.farm_report().calibration_tasks,
            120u);
  EXPECT_EQ(b.farm_report().tasks_completed +
                b.farm_report().calibration_tasks,
            120u);
}

TEST(GridService, ConcurrentTenantsAreDeterministic) {
  const auto run_once = [] {
    const gridsim::Grid grid = gridsim::make_uniform_grid(8, 100.0);
    core::SimBackend backend(grid);
    GridService service(backend, grid, grid.node_ids());
    JobOptions half;
    half.max_share = 0.5;
    const JobHandle a = service.submit(
        FarmJob{core::make_adaptive_farm_params(), tasks(150, 1)}, half);
    const JobHandle b = service.submit(
        FarmJob{core::make_adaptive_farm_params(), tasks(150, 2)}, half);
    service.wait_all();
    return std::pair{a.makespan_s(), b.makespan_s()};
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_DOUBLE_EQ(first.first, second.first);
  EXPECT_DOUBLE_EQ(first.second, second.second);
}

TEST(GridService, SaturatedPoolQueuesFifo) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(4, 100.0);
  core::SimBackend backend(grid);
  GridService service(backend, grid, grid.node_ids());

  // Work-conserving default: the first tenant takes all four nodes, so
  // the second waits for it to retire.
  const JobHandle a = service.submit(
      FarmJob{core::make_adaptive_farm_params(), tasks(100, 1)});
  const JobHandle b = service.submit(
      FarmJob{core::make_adaptive_farm_params(), tasks(100, 2)});
  service.wait_all();

  ASSERT_EQ(a.status(), JobStatus::Completed);
  ASSERT_EQ(b.status(), JobStatus::Completed);
  EXPECT_EQ(service.max_concurrent_observed(), 1u);
  EXPECT_GT(b.queue_wait_s(), 0.0);
  EXPECT_GE(b.started_at().value, a.finished_at().value);
}

TEST(GridService, AdmissionControlRejectsBeyondQueueBound) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(4, 100.0);
  core::SimBackend backend(grid);
  GridService::Params params;
  params.max_concurrent_jobs = 1;
  params.max_queued_jobs = 1;
  GridService service(backend, grid, grid.node_ids(), params);

  const JobHandle a = service.submit(
      FarmJob{core::make_adaptive_farm_params(), tasks(80, 1)});
  const JobHandle b = service.submit(
      FarmJob{core::make_adaptive_farm_params(), tasks(80, 2)});
  const JobHandle c = service.submit(
      FarmJob{core::make_adaptive_farm_params(), tasks(80, 3)});

  EXPECT_EQ(c.status(), JobStatus::Rejected);
  service.wait_all();
  EXPECT_EQ(a.status(), JobStatus::Completed);
  EXPECT_EQ(b.status(), JobStatus::Completed);
  EXPECT_EQ(service.jobs_rejected(), 1u);
  EXPECT_EQ(service.jobs_completed(), 2u);
}

TEST(GridService, ScheduledArrivalsMaterialiseOnTheBackendClock) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(8, 100.0);
  core::SimBackend backend(grid);
  GridService service(backend, grid, grid.node_ids());

  JobOptions half;
  half.max_share = 0.5;
  const JobHandle now_job = service.submit(
      FarmJob{core::make_adaptive_farm_params(), tasks(200, 1)}, half);
  const JobHandle later = service.submit_at(
      Seconds{30.0},
      FarmJob{core::make_adaptive_farm_params(), tasks(60, 2)}, half);
  service.wait_all();

  ASSERT_EQ(now_job.status(), JobStatus::Completed);
  ASSERT_EQ(later.status(), JobStatus::Completed);
  EXPECT_DOUBLE_EQ(later.submitted_at().value, 30.0);
  EXPECT_GE(later.started_at().value, 30.0);
  EXPECT_EQ(service.max_concurrent_observed(), 2u);
}

TEST(GridService, PipelineJobsAreTenantsToo) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(8, 100.0);
  core::SimBackend backend(grid);
  GridService service(backend, grid, grid.node_ids());

  JobOptions half;
  half.max_share = 0.5;
  core::PipelineParams pp;
  const workloads::PipelineSpec spec =
      workloads::make_uniform_pipeline(3, 50.0, 1e4);
  const JobHandle pipe =
      service.submit(PipelineJob{pp, spec, 40}, half);
  const JobHandle farm = service.submit(
      FarmJob{core::make_adaptive_farm_params(), tasks(100, 2)}, half);
  service.wait_all();

  ASSERT_EQ(pipe.status(), JobStatus::Completed);
  ASSERT_EQ(farm.status(), JobStatus::Completed);
  EXPECT_EQ(pipe.pipeline_report().items_completed, 40u);
  EXPECT_TRUE(pipe.pipeline_report().output_in_order);
  EXPECT_EQ(service.max_concurrent_observed(), 2u);
}

TEST(GridService, EngineExceptionsSurfaceThroughWait) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(4, 100.0);
  core::SimBackend backend(grid);
  GridService service(backend, grid, {});
  const JobHandle handle = service.submit(
      FarmJob{core::make_adaptive_farm_params(), tasks(10)});
  EXPECT_THROW(service.wait(handle), std::invalid_argument);
  EXPECT_EQ(handle.status(), JobStatus::Failed);
  EXPECT_NE(handle.error_message().find("empty pool"), std::string::npos);
}

TEST(GridService, ThreadedEngineExceptionsAreCapturedAndRethrown) {
  // Pipeline deeper than its allocation: the engine throws on its job
  // fiber; the service must carry the exact exception back to wait().
  const gridsim::Grid grid = gridsim::make_uniform_grid(2, 100.0);
  core::SimBackend backend(grid);
  GridService::Params params;
  params.force_threaded = true;
  GridService service(backend, grid, grid.node_ids(), params);
  const workloads::PipelineSpec spec =
      workloads::make_uniform_pipeline(5, 50.0, 1e4);
  const JobHandle handle =
      service.submit(PipelineJob{core::PipelineParams{}, spec, 10});
  EXPECT_THROW(service.wait(handle), std::invalid_argument);
  EXPECT_EQ(handle.status(), JobStatus::Failed);
  service.wait_all();  // must not rethrow or hang
}

TEST(GridService, PerJobTelemetryIsImportedUnderScopedPrefix) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(8, 100.0);
  core::SimBackend backend(grid);
  obs::Telemetry telemetry;
  GridService::Params params;
  params.telemetry = &telemetry;
  GridService service(backend, grid, grid.node_ids(), params);

  JobOptions half;
  half.max_share = 0.5;
  const JobHandle a = service.submit(
      FarmJob{core::make_adaptive_farm_params(), tasks(100, 1)}, half);
  const JobHandle b = service.submit(
      FarmJob{core::make_adaptive_farm_params(), tasks(100, 2)}, half);
  service.wait_all();
  ASSERT_EQ(a.status(), JobStatus::Completed);
  ASSERT_EQ(b.status(), JobStatus::Completed);

  const obs::MetricsSnapshot snap = telemetry.metrics.snapshot();
  const obs::MetricsSnapshot job1 = obs::filter_snapshot(snap, "job.1.");
  const obs::MetricsSnapshot job2 = obs::filter_snapshot(snap, "job.2.");
  ASSERT_FALSE(job1.counters.empty());
  ASSERT_FALSE(job2.counters.empty());
  const auto counter_value = [](const obs::MetricsSnapshot& s,
                                const std::string& name) -> std::uint64_t {
    for (const auto& [n, v] : s.counters)
      if (n == name) return v;
    return 0;
  };
  EXPECT_EQ(counter_value(job1, "farm.tasks_completed"),
            a.farm_report().tasks_completed);
  EXPECT_EQ(counter_value(job2, "farm.tasks_completed"),
            b.farm_report().tasks_completed);

  // Service-level accounting lives unprefixed in the shared registry.
  EXPECT_EQ(counter_value(snap, "svc.jobs_completed"), 2u);

  // Each retired job grafted one span tree under a "job" root.
  std::size_t job_roots = 0;
  for (const auto& rec : telemetry.spans.records())
    if (rec.parent == 0 && std::string_view(rec.name) == "job") ++job_roots;
  EXPECT_EQ(job_roots, 2u);
}

TEST(GridService, JobMixStreamCompletesEveryArrival) {
  // An open-loop arrival stream over the application mix: every scheduled
  // job must terminate and account for its own tasks.
  const gridsim::Grid grid = gridsim::make_uniform_grid(10, 100.0);
  core::SimBackend backend(grid);
  GridService service(backend, grid, grid.node_ids());

  workloads::JobArrivalParams ap;
  ap.horizon = Seconds{600.0};
  ap.base_rate_per_s = 1.0 / 60.0;
  ap.kind_weights = {1.0, 1.0, 1.0};
  ap.seed = 9;
  const auto arrivals = workloads::make_job_arrivals(ap);
  ASSERT_GE(arrivals.size(), 3u);

  std::vector<JobHandle> handles;
  std::vector<std::size_t> sizes;
  for (const auto& arrival : arrivals) {
    const workloads::TaskSet ts = workloads::make_application_task_set(
        static_cast<workloads::ApplicationKind>(arrival.kind), arrival.seed);
    sizes.push_back(ts.size());
    JobOptions opt;
    opt.max_share = 0.4;
    handles.push_back(service.submit_at(
        arrival.at, FarmJob{core::make_adaptive_farm_params(), ts}, opt));
  }
  service.wait_all();

  for (std::size_t i = 0; i < handles.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "arrival " << i);
    ASSERT_EQ(handles[i].status(), JobStatus::Completed);
    EXPECT_EQ(handles[i].farm_report().tasks_completed +
                  handles[i].farm_report().calibration_tasks,
              sizes[i]);
    EXPECT_GE(handles[i].submitted_at().value, 0.0);
  }
  EXPECT_EQ(service.jobs_completed(), handles.size());
}

TEST(GridService, TeardownWithParkedTenantsFailsRunningKeepsQueued) {
  // Jobs are admitted (their engines start and park on the first
  // wait_next) but nobody ever waits: the service's destructor must
  // unwind every parked engine with an end-of-stream and leave the
  // never-admitted jobs queued.  Leaks of unwound engine frames surface
  // under the LeakSanitizer build.
  const gridsim::Grid grid = gridsim::make_uniform_grid(8, 100.0);
  core::SimBackend backend(grid);
  std::vector<JobHandle> handles;
  {
    GridService::Params params;
    params.max_concurrent_jobs = 3;
    GridService service(backend, grid, grid.node_ids(), params);
    JobOptions quarter;
    quarter.max_share = 0.25;
    for (std::uint64_t seed = 1; seed <= 5; ++seed)
      handles.push_back(service.submit(
          FarmJob{core::make_adaptive_farm_params(), tasks(100, seed)},
          quarter));
    ASSERT_EQ(service.jobs_running(), 3u);
    ASSERT_EQ(service.jobs_queued(), 2u);
  }
  for (std::size_t i = 0; i < handles.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "job " << i);
    if (i < 3) {
      EXPECT_EQ(handles[i].status(), JobStatus::Failed);
      EXPECT_NE(handles[i].error_message().find("drained unexpectedly"),
                std::string::npos)
          << handles[i].error_message();
      EXPECT_THROW(handles[i].rethrow(), std::logic_error);
    } else {
      EXPECT_EQ(handles[i].status(), JobStatus::Queued);
      EXPECT_TRUE(handles[i].error_message().empty());
    }
  }
}

// Forwards to a real backend and records which thread made every call.
class ThreadRecordingBackend final : public core::Backend {
 public:
  explicit ThreadRecordingBackend(core::Backend& inner) : inner_(inner) {}

  [[nodiscard]] Seconds now() const override {
    record();
    return inner_.now();
  }
  void submit_compute(core::OpToken token, NodeId node, Mops work,
                      std::function<void()> body) override {
    record();
    inner_.submit_compute(token, node, work, std::move(body));
  }
  void submit_transfer(core::OpToken token, NodeId from, NodeId to,
                       Bytes payload) override {
    record();
    inner_.submit_transfer(token, from, to, payload);
  }
  void submit_timer(core::OpToken token, Seconds delay) override {
    record();
    inner_.submit_timer(token, delay);
  }
  bool cancel_timer(core::OpToken token) override {
    record();
    return inner_.cancel_timer(token);
  }
  void submit_batch(std::vector<core::OpRequest> requests) override {
    record();
    inner_.submit_batch(std::move(requests));
  }
  [[nodiscard]] double compute_progress(core::OpToken token) const override {
    record();
    return inner_.compute_progress(token);
  }
  [[nodiscard]] std::optional<core::Completion> wait_next() override {
    record();
    return inner_.wait_next();
  }
  [[nodiscard]] std::size_t in_flight() const override {
    record();
    return inner_.in_flight();
  }

  [[nodiscard]] std::size_t calls() const { return calls_; }
  [[nodiscard]] std::size_t foreign_calls() const { return foreign_; }

 private:
  void record() const {
    ++calls_;
    if (std::this_thread::get_id() != owner_) ++foreign_;
  }

  core::Backend& inner_;
  std::thread::id owner_ = std::this_thread::get_id();
  mutable std::size_t calls_ = 0;
  mutable std::size_t foreign_ = 0;
};

TEST(GridService, EveryBackendCallComesFromTheClientThread) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(9, 100.0);
  core::SimBackend sim(grid);
  ThreadRecordingBackend backend(sim);
  GridService service(backend, grid, grid.node_ids());
  JobOptions third;
  third.max_share = 1.0 / 3.0;
  std::vector<JobHandle> handles;
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    handles.push_back(service.submit(
        FarmJob{core::make_adaptive_farm_params(), tasks(120, seed)}, third));
  service.wait_all();

  for (const JobHandle& h : handles)
    ASSERT_EQ(h.status(), JobStatus::Completed) << h.error_message();
  EXPECT_EQ(service.max_concurrent_observed(), 3u);
  EXPECT_GT(backend.calls(), 0u);
  EXPECT_EQ(backend.foreign_calls(), 0u);
}

TEST(GridService, ThreadBackendTenantsConserveEveryTask) {
  // Completions arrive from ThreadBackend's worker threads while the
  // tenants' engines take turns on the client thread.
  const gridsim::Grid grid = gridsim::make_uniform_grid(6, 100.0);
  core::ThreadBackend::Params bp;
  bp.time_scale = 0.0;
  core::ThreadBackend backend(grid, bp);
  GridService service(backend, grid, grid.node_ids());
  JobOptions third;
  third.max_share = 1.0 / 3.0;
  std::vector<JobHandle> handles;
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    handles.push_back(service.submit(
        FarmJob{core::make_adaptive_farm_params(), tasks(80, seed)}, third));
  service.wait_all();

  for (const JobHandle& h : handles) {
    ASSERT_EQ(h.status(), JobStatus::Completed) << h.error_message();
    EXPECT_EQ(h.farm_report().tasks_completed +
                  h.farm_report().calibration_tasks,
              80u);
  }
  EXPECT_EQ(service.max_concurrent_observed(), 3u);
}

}  // namespace
}  // namespace grasp::svc
