#include "core/backend_thread.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace grasp::core {

namespace {

/// Wall-clock instant `wall_seconds` from now (steady clock granularity).
std::chrono::steady_clock::time_point deadline_after(double wall_seconds) {
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(wall_seconds));
}

}  // namespace

ThreadBackend::ThreadBackend(const gridsim::Grid& grid, Params params)
    : grid_(&grid),
      params_(params),
      clock_scale_(params.time_scale > 0.0 ? params.time_scale : 1.0),
      epoch_(std::chrono::steady_clock::now()) {
  node_queues_.reserve(grid.node_count());
  for (std::size_t i = 0; i < grid.node_count(); ++i) {
    node_queues_.push_back(std::make_unique<WorkerQueue>());
    threads_.emplace_back([this, i] { worker_loop(*node_queues_[i]); });
  }
  link_queue_ = std::make_unique<WorkerQueue>();
  threads_.emplace_back([this] { worker_loop(*link_queue_); });
  timer_thread_ = std::thread([this] { timer_loop(); });
}

ThreadBackend::~ThreadBackend() {
  // Teardown abandons queued jobs and interrupts in-progress modelled waits:
  // no further completions are delivered, and a chunk stalled by a simulated
  // outage does not hold the destructor for its remaining modelled time.
  for (auto& q : node_queues_) {
    const std::lock_guard<std::mutex> lock(q->mutex);
    q->stop = true;
    q->cv.notify_all();
  }
  {
    const std::lock_guard<std::mutex> lock(link_queue_->mutex);
    link_queue_->stop = true;
    link_queue_->cv.notify_all();
  }
  {
    const std::lock_guard<std::mutex> lock(timer_mutex_);
    timer_stop_ = true;
    timer_cv_.notify_all();
  }
  for (auto& t : threads_) t.join();
  timer_thread_.join();
}

Seconds ThreadBackend::now() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  const double wall = std::chrono::duration<double>(elapsed).count();
  // Report in *virtual* seconds so engines see one time base everywhere.
  return Seconds{wall / clock_scale_};
}

void ThreadBackend::enqueue(WorkerQueue& queue, Job job) {
  {
    const std::lock_guard<std::mutex> ready_lock(ready_mutex_);
    ++in_flight_;
  }
  const std::lock_guard<std::mutex> lock(queue.mutex);
  queue.jobs.push_back(std::move(job));
  queue.cv.notify_one();
}

void ThreadBackend::submit_compute(OpToken token, NodeId node, Mops work,
                                   std::function<void()> body) {
  const Seconds duration = grid_->node(node).compute_time(work, now());
  {
    const std::lock_guard<std::mutex> lock(ready_mutex_);
    computes_.emplace(token, ComputeState{duration, Seconds{-1.0}});
  }
  Job job{token, node, duration,
          params_.run_bodies ? std::move(body) : std::function<void()>{}};
  enqueue(*node_queues_[node.value], std::move(job));
}

double ThreadBackend::compute_progress(OpToken token) const {
  const std::lock_guard<std::mutex> lock(ready_mutex_);
  const auto it = computes_.find(token);
  if (it == computes_.end()) return 0.0;
  if (it->second.started.value < 0.0) return 0.0;  // still queued
  if (it->second.finished) return 1.0;
  if (it->second.model_duration.value <= 0.0) return 0.0;
  const double frac =
      (now() - it->second.started).value / it->second.model_duration.value;
  // Never report fully done while the op still runs: a real body may
  // outlast its modelled duration, and claiming 1.0 would let a checkpoint
  // salvage work whose side effects have not happened yet.
  return std::clamp(frac, 0.0, std::nextafter(1.0, 0.0));
}

void ThreadBackend::submit_transfer(OpToken token, NodeId from, NodeId to,
                                    Bytes payload) {
  const Seconds duration = grid_->transfer_time(from, to, payload, now());
  enqueue(*link_queue_, Job{token, to, duration, {}});
}

void ThreadBackend::submit_timer(OpToken token, Seconds delay) {
  if (delay.value < 0.0)
    throw std::invalid_argument("ThreadBackend: negative timer delay");
  {
    // Count the timer before it is armed: a wait_next racing the timer
    // thread must never observe "nothing pending" while the firing is due.
    const std::lock_guard<std::mutex> ready_lock(ready_mutex_);
    ++timers_pending_;
  }
  const Seconds started = now();
  {
    const std::lock_guard<std::mutex> lock(timer_mutex_);
    timer_heap_.push_back(TimerEntry{
        deadline_after(delay.value * clock_scale_), timer_seq_++, token,
        started});
    std::push_heap(timer_heap_.begin(), timer_heap_.end(), TimerLater{});
    timer_cv_.notify_one();
  }
}

bool ThreadBackend::cancel_timer(OpToken token) {
  {
    const std::lock_guard<std::mutex> lock(timer_mutex_);
    const auto it =
        std::find_if(timer_heap_.begin(), timer_heap_.end(),
                     [&](const TimerEntry& e) { return e.token == token; });
    if (it != timer_heap_.end()) {
      timer_heap_.erase(it);
      std::make_heap(timer_heap_.begin(), timer_heap_.end(), TimerLater{});
      const std::lock_guard<std::mutex> ready_lock(ready_mutex_);
      --timers_pending_;
      return true;
    }
  }
  // Not pending: it may have fired but not yet been delivered.  The firing
  // path is atomic under timer_mutex_, so by here it is in ready_ or gone.
  const std::lock_guard<std::mutex> ready_lock(ready_mutex_);
  const auto it = std::find_if(
      ready_.begin(), ready_.end(),
      [&](const Completion& c) { return c.is_timer && c.token == token; });
  if (it != ready_.end()) {
    ready_.erase(it);
    return true;
  }
  return false;
}

void ThreadBackend::timer_loop() {
  std::unique_lock<std::mutex> lock(timer_mutex_);
  for (;;) {
    if (timer_stop_) return;
    if (timer_heap_.empty()) {
      timer_cv_.wait(lock,
                     [&] { return timer_stop_ || !timer_heap_.empty(); });
      continue;
    }
    const auto deadline = timer_heap_.front().deadline;
    if (std::chrono::steady_clock::now() < deadline) {
      // Woken early by submit/cancel/stop: loop and re-evaluate the heap.
      timer_cv_.wait_until(lock, deadline);
      continue;
    }
    std::pop_heap(timer_heap_.begin(), timer_heap_.end(), TimerLater{});
    const TimerEntry due = timer_heap_.back();
    timer_heap_.pop_back();
    // Deliver while still holding timer_mutex_ so cancel_timer never finds
    // the token in neither structure while its firing is in transit.
    {
      const std::lock_guard<std::mutex> ready_lock(ready_mutex_);
      --timers_pending_;
      ready_.push_back(Completion{due.token, NodeId::invalid(), due.started,
                                  now(), true});
    }
    ready_cv_.notify_one();
  }
}

void ThreadBackend::worker_loop(WorkerQueue& queue) {
  std::unique_lock<std::mutex> lock(queue.mutex);
  for (;;) {
    queue.cv.wait(lock, [&] { return queue.stop || !queue.jobs.empty(); });
    if (queue.stop) return;  // teardown: abandon queued jobs
    Job job = std::move(queue.jobs.front());
    queue.jobs.pop_front();
    lock.unlock();
    const Seconds started = now();
    {
      // Transfers never registered a ComputeState; find() keeps them out.
      const std::lock_guard<std::mutex> ready_lock(ready_mutex_);
      const auto it = computes_.find(job.token);
      if (it != computes_.end()) it->second.started = started;
    }
    if (job.body) job.body();
    // Wait out whatever the model says remains after real work ran — on the
    // queue's condition variable, so the destructor can interrupt a stalled
    // op instead of sleeping out its modelled duration.
    const double wall_budget = job.model_duration.value * params_.time_scale;
    const double wall_used = (now() - started).value * clock_scale_;
    lock.lock();
    if (wall_budget > wall_used) {
      const bool interrupted =
          queue.cv.wait_until(lock, deadline_after(wall_budget - wall_used),
                              [&] { return queue.stop; });
      if (interrupted) return;
    }
    if (queue.stop) return;
    lock.unlock();
    complete(job, started);
    lock.lock();
  }
}

void ThreadBackend::complete(const Job& job, Seconds started) {
  {
    const std::lock_guard<std::mutex> lock(ready_mutex_);
    const auto it = computes_.find(job.token);
    if (it != computes_.end()) it->second.finished = true;
    ready_.push_back(Completion{job.token, job.report_node, started, now()});
  }
  ready_cv_.notify_one();
}

std::optional<Completion> ThreadBackend::wait_next() {
  std::unique_lock<std::mutex> lock(ready_mutex_);
  if (ready_.empty() && in_flight_ == 0 && timers_pending_ == 0)
    return std::nullopt;
  ready_cv_.wait(lock, [&] { return !ready_.empty(); });
  const Completion c = ready_.front();
  ready_.pop_front();
  if (!c.is_timer) {
    --in_flight_;
    // Progress stays queryable (clamped to 1) until the completion is
    // delivered, matching SimBackend — a checkpoint tick racing a finished
    // worker must not read 0 off a done-but-undrained op.
    computes_.erase(c.token);
  }
  return c;
}

std::size_t ThreadBackend::in_flight() const {
  const std::lock_guard<std::mutex> lock(ready_mutex_);
  return in_flight_;
}

}  // namespace grasp::core
