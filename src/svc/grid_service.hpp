// GridService: the resident job-stream scheduler.
//
// Before this layer, one TaskFarm::run owned the backend for its whole
// lifetime — one tenant, one job, then everything torn down.  The service
// inverts that: it owns the node pool for its own lifetime and *admits*
// jobs (farm or pipeline runs) against it.  Jobs arrive via submit() or
// on a scheduled backend timer via submit_at() (open-loop arrival
// streams), queue FIFO, and are started when the weighted
// fair-share-over-mops policy (fair_share.hpp) can cut them an
// allocation from the free part of the pool.  A pool-wide calibration
// cache (calibration_cache.hpp) is threaded through every job's
// CalibrationParams, so one tenant's Algorithm-1 measurements warm the
// next tenant's start.
//
// Execution model — the service owns no thread; everything runs on the
// client thread.  That thread becomes the scheduler whenever it is inside
// wait()/wait_all(), and each *running* job drives the unmodified
// run_engine loop on its own fiber (support/fiber.hpp) against a
// JobBackend proxy.  The service pumps the real backend one completion at
// a time, routes it to its owner's inbox and switches into the owner's
// fiber; the engine runs until it parks in wait_next again, which switches
// back.  Exactly one actor runs at any moment and every handoff is a
// user-space context swap, so runs are deterministic by construction and
// a handoff costs no kernel wakeup.
//
// Inline fast path: with exactly one live job, no scheduled arrivals and
// force_threaded off, the service skips fibers entirely and runs the
// engine inline on the caller's stack against the real backend — zero
// overhead, observably identical to calling run_engine directly.  This
// is what makes TaskFarm::run / Pipeline::run thin wrappers over a
// private single-tenant service without perturbing a single test.
//
// Thread-safety: none.  All public methods must be called from one client
// thread, the one the engine fibers run on.  JobHandle accessors are exact
// once the handle is terminal and the service has quiesced.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <variant>
#include <vector>

#include "core/backend.hpp"
#include "gridsim/grid.hpp"
#include "obs/telemetry.hpp"
#include "obs/watchdog.hpp"
#include "svc/calibration_cache.hpp"
#include "svc/job.hpp"
#include "svc/job_backend.hpp"

namespace grasp::svc {

class GridService {
 public:
  struct Params {
    /// Cap on simultaneously running jobs; 0 = bounded by the pool only.
    std::size_t max_concurrent_jobs = 0;
    /// Admission control: a submit that would grow the wait queue past
    /// this bound is Rejected instead of queued (scheduled arrivals are
    /// checked when their timer fires).  Default: never reject.
    std::size_t max_queued_jobs = static_cast<std::size_t>(-1);
    /// Thread the pool-wide calibration cache through every job.
    bool use_calibration_cache = true;
    /// Freshness horizon for cached spm entries.
    Seconds calibration_max_age = Seconds{600.0};
    /// Cap every admission grant at max_share of the *free* capacity as
    /// well as of the total (fair_share.hpp documents the busy-pool
    /// over-grab this guards against).  Off by default: the recorded
    /// bench baselines rely on the work-conserving grab-the-remainder
    /// policy.
    bool cap_share_to_free = false;
    /// Shared observability sink (non-owning; may be null).  Service
    /// counters live here, and each retired job's private telemetry is
    /// imported under a "job.<seq>." metric prefix and a "job" span root
    /// (read back per-job with obs::filter_snapshot).
    obs::Telemetry* telemetry = nullptr;
    /// Service-level SLO bounds (requires `telemetry`).  The service's own
    /// watchdog checks queue-wait p99 against `queue_wait_p99_s` every time
    /// a job retires; per-tenant engine rules go through JobOptions::slos
    /// instead.  All-zero disables it.
    obs::SloRules slos;
    /// Disable the single-job inline fast path (tests: forces the fiber
    /// protocol even for one tenant).
    bool force_threaded = false;
  };

  /// The service schedules over `pool` (a subset of `grid`'s nodes) and
  /// resolves all costs through `backend`.  Both must outlive it.
  GridService(core::Backend& backend, const gridsim::Grid& grid,
              std::vector<NodeId> pool);
  GridService(core::Backend& backend, const gridsim::Grid& grid,
              std::vector<NodeId> pool, Params params);
  GridService(const GridService&) = delete;
  GridService& operator=(const GridService&) = delete;
  /// Cancels scheduled arrivals, drops queued jobs, and shuts down any
  /// running engines (they observe a premature end-of-stream and fail).
  ~GridService();

  // ---------------------------------------------------------- submission
  JobHandle submit(FarmJob job, JobOptions options = {});
  JobHandle submit(PipelineJob job, JobOptions options = {});
  /// Schedule a submission for absolute backend time `when` (clamped to
  /// now): the job materialises in the queue when the backend clock gets
  /// there, which is how open-loop arrival processes enter the service.
  JobHandle submit_at(Seconds when, FarmJob job, JobOptions options = {});
  JobHandle submit_at(Seconds when, PipelineJob job, JobOptions options = {});

  // ------------------------------------------------------------- waiting
  /// Drive the service until `handle` is terminal.  Rethrows the engine's
  /// exception when the job Failed (so the single-job wrapper surfaces
  /// exactly what run_engine would have thrown).
  void wait(const JobHandle& handle);
  /// Drive the service until every submitted and scheduled job is
  /// terminal.  Does not rethrow; inspect handles for failures.
  void wait_all();

  // ----------------------------------------------------------- inspection
  [[nodiscard]] const CalibrationCache& calibration_cache() const {
    return cache_;
  }
  [[nodiscard]] CalibrationCache& calibration_cache() { return cache_; }
  [[nodiscard]] const std::vector<NodeId>& pool() const { return pool_; }

  [[nodiscard]] std::size_t jobs_submitted() const { return all_jobs_.size(); }
  [[nodiscard]] std::size_t jobs_completed() const { return completed_; }
  [[nodiscard]] std::size_t jobs_failed() const { return failed_; }
  [[nodiscard]] std::size_t jobs_rejected() const { return rejected_; }
  [[nodiscard]] std::size_t jobs_running() const { return running_.size(); }
  [[nodiscard]] std::size_t jobs_queued() const { return queue_.size(); }
  /// Peak number of simultaneously running jobs over the service's life —
  /// the multi-tenancy witness the bench smoke gate asserts on.
  [[nodiscard]] std::size_t max_concurrent_observed() const {
    return peak_running_;
  }
  /// Times a queued head job's min_nodes was re-clamped because churn
  /// shrank live membership below it (head-of-line anti-starvation).
  [[nodiscard]] std::size_t min_nodes_reclamps() const {
    return min_nodes_reclamps_;
  }
  /// Every handle ever produced, in submission order.
  [[nodiscard]] std::vector<JobHandle> jobs() const;

 private:
  friend class detail::JobBackend;
  using StatePtr = std::shared_ptr<detail::JobState>;

  JobHandle submit_impl(std::variant<FarmJob, PipelineJob> spec,
                        JobOptions options, std::optional<Seconds> when);

  /// Run `job`'s engine against `backend` (dispatch on the spec variant).
  void execute(detail::JobState& job, core::Backend& backend);
  /// Inject the calibration cache and a per-job telemetry sink into the
  /// job's engine params (in place, pre-run).
  void prepare_params(detail::JobState& job);

  /// execute() with every exception captured into the job's error fields.
  void execute_guarded(detail::JobState& job, core::Backend& backend);

  // Scheduler core; every method below runs on the service side, with no
  // engine fiber active.
  void pump_until(const std::function<bool()>& done);
  bool pump_one();
  void try_admit();
  void start_job(const StatePtr& job, std::vector<NodeId> allocation);
  void run_inline();
  void reap();
  void reject(detail::JobState& job);
  void finalize(const StatePtr& job);
  /// Switch into the job's fiber until it parks in wait_next or finishes.
  void grant_turn(detail::JobState& job);
  [[nodiscard]] bool inline_eligible() const;
  [[nodiscard]] StatePtr find_running(std::uint64_t seq) const;
  [[nodiscard]] double capacity_mops(NodeId node) const;
  /// Drop cached spm for nodes with a churn Crash/Leave in
  /// (churn_scan_, now]; advances the watermark.  No-op without a churn
  /// timeline or with the cache disabled.
  void invalidate_departed(Seconds now);
  void update_gauges();

  core::Backend& backend_;
  const gridsim::Grid& grid_;
  std::vector<NodeId> pool_;
  Params params_;
  CalibrationCache cache_;
  obs::Telemetry* telemetry_ = nullptr;

  struct SvcMetrics {
    obs::CounterHandle submitted, completed, failed, rejected, reclamped;
    obs::GaugeHandle running, queued;
    obs::HistogramHandle queue_wait_s, makespan_s;
  } met_;
  /// Service-level SLO watchdog (queue-wait p99 at job retirement); engaged
  /// only when params.slos has a bound set and a telemetry sink exists.
  std::optional<obs::Watchdog> watchdog_;

  std::uint64_t next_seq_ = 1;
  std::vector<StatePtr> all_jobs_;
  /// Jobs in all_jobs_ that are not terminal yet (wait_all's predicate).
  std::size_t live_jobs_ = 0;
  std::deque<StatePtr> queue_;
  std::vector<StatePtr> running_;
  std::unordered_map<core::OpToken, StatePtr> pending_arrivals_;
  core::OpToken next_arrival_token_ = 1;

  std::size_t completed_ = 0;
  std::size_t failed_ = 0;
  std::size_t rejected_ = 0;
  std::size_t peak_running_ = 0;
  std::size_t min_nodes_reclamps_ = 0;
  /// High-water mark of the churn-event scan feeding cache invalidation.
  Seconds churn_scan_{0.0};
};

}  // namespace grasp::svc
