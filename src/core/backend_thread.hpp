// Wall-clock backend: one worker thread per grid node.
//
// Costs are realised physically: a compute op optionally runs the caller's
// real body, then waits out the remainder of the model-predicted duration
// scaled by `time_scale` (so a 400-virtual-second run can execute in
// 0.4 s of wall clock).  Transfers wait their scaled duration on a
// dedicated link thread pool.  Modelled waits are cancellable
// condition-variable deadline waits, not sleep_for: destruction interrupts
// them, so teardown returns promptly even when a chunk stalled by a
// simulated outage has hours of modelled time left (churn on real threads).
// Timers run on a dedicated deadline-heap thread and are delivered through
// the same completion stream.  This backend exists to show the identical
// skeleton logic driving real concurrency — the experiments use SimBackend.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/backend.hpp"
#include "gridsim/grid.hpp"

namespace grasp::core {

class ThreadBackend final : public Backend {
 public:
  struct Params {
    /// Wall seconds per virtual second (1e-3: 1000x faster than modelled).
    /// 0 drops the modelled waits: ops finish as fast as their bodies run,
    /// while the clock and timers keep running at wall speed.
    double time_scale = 1e-3;
    /// Run attached task bodies (real user work) before the scaled sleep.
    bool run_bodies = true;
  };

  ThreadBackend(const gridsim::Grid& grid, Params params);
  ~ThreadBackend() override;

  ThreadBackend(const ThreadBackend&) = delete;
  ThreadBackend& operator=(const ThreadBackend&) = delete;

  [[nodiscard]] Seconds now() const override;
  void submit_compute(OpToken token, NodeId node, Mops work,
                      std::function<void()> body = {}) override;
  void submit_transfer(OpToken token, NodeId from, NodeId to,
                       Bytes payload) override;
  void submit_timer(OpToken token, Seconds delay) override;
  bool cancel_timer(OpToken token) override;
  [[nodiscard]] double compute_progress(OpToken token) const override;
  [[nodiscard]] std::optional<Completion> wait_next() override;
  [[nodiscard]] std::size_t in_flight() const override;

 private:
  struct Job {
    OpToken token;
    NodeId report_node;
    Seconds model_duration;  ///< virtual-time cost, scaled into a wait
    std::function<void()> body;
  };
  struct WorkerQueue {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Job> jobs;
    bool stop = false;
  };
  struct TimerEntry {
    std::chrono::steady_clock::time_point deadline;
    std::uint64_t seq;  ///< FIFO among equal deadlines
    OpToken token;
    Seconds started;  ///< virtual submit time, reported in the Completion
  };
  /// Heap order for timer_heap_: earliest deadline on top, FIFO on ties.
  struct TimerLater {
    bool operator()(const TimerEntry& a, const TimerEntry& b) const {
      if (a.deadline != b.deadline) return a.deadline > b.deadline;
      return a.seq > b.seq;
    }
  };

  void worker_loop(WorkerQueue& queue);
  void timer_loop();
  void complete(const Job& job, Seconds started);
  void enqueue(WorkerQueue& queue, Job job);

  const gridsim::Grid* grid_;
  Params params_;
  /// Wall seconds per virtual second on the clock and timers.
  double clock_scale_;
  std::chrono::steady_clock::time_point epoch_;

  std::vector<std::unique_ptr<WorkerQueue>> node_queues_;  // one per node
  std::unique_ptr<WorkerQueue> link_queue_;  // serialised transfer lane
  std::vector<std::thread> threads_;

  // Deadline-sorted pending timers, served by a dedicated thread.
  std::mutex timer_mutex_;
  std::condition_variable timer_cv_;
  std::vector<TimerEntry> timer_heap_;  // std::push_heap, earliest on top
  std::uint64_t timer_seq_ = 0;
  bool timer_stop_ = false;
  std::thread timer_thread_;

  mutable std::mutex ready_mutex_;
  std::condition_variable ready_cv_;
  std::deque<Completion> ready_;
  std::size_t in_flight_ = 0;
  std::size_t timers_pending_ = 0;  ///< armed but not yet in ready_

  /// Undelivered compute ops, for compute_progress.  `started` is invalid
  /// (negative) while the job still sits in its worker queue; `finished`
  /// flips when the worker enqueues the completion (the real body and the
  /// modelled wait are both done).  Guarded by ready_mutex_ (workers touch
  /// it only at job start and completion).
  struct ComputeState {
    Seconds model_duration;
    Seconds started{-1.0};
    bool finished = false;
  };
  std::unordered_map<OpToken, ComputeState> computes_;
};

}  // namespace grasp::core
