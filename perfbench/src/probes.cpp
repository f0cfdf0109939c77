#include "probes.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <string>

namespace perfbench {

using grasp::core::Completion;
using grasp::core::OpRequest;
using grasp::core::OpToken;

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

ProcessUsage ProcessUsage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcessUsage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.vcsw = ru.ru_nvcsw;
  u.ivcsw = ru.ru_nivcsw;
  return u;
}

ProcessUsage ProcessUsage::since(const ProcessUsage& before) const {
  return {user_s - before.user_s, sys_s - before.sys_s, vcsw - before.vcsw,
          ivcsw - before.ivcsw};
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
    std::getline(status, key);
  }
  return 0.0;
}

int pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

// ------------------------------------------------------------------ spans

void CallTally::add(double start_s, double end_s) {
  if (calls == 0) first_s = start_s;
  ++calls;
  busy_s += end_s - start_s;
  last_s = end_s;
}

std::uint64_t SpanLog::begin(const char* name, std::uint64_t parent) {
  if (!enabled_) return 0;
  SpanRecord r;
  r.id = records_.size() + 1;
  r.parent = parent;
  r.name = name;
  r.start_s = wall_now();
  r.end_s = r.start_s;
  records_.push_back(std::move(r));
  return records_.back().id;
}

void SpanLog::end(std::uint64_t id) {
  if (id == 0 || id > records_.size()) return;
  records_[id - 1].end_s = wall_now();
}

void SpanLog::aggregate(const char* name, std::uint64_t parent,
                        const CallTally& tally) {
  if (!enabled_ || tally.calls == 0) return;
  SpanRecord r;
  r.id = records_.size() + 1;
  r.parent = parent;
  r.name = name;
  r.start_s = tally.first_s;
  r.end_s = tally.last_s;
  r.busy_s = tally.busy_s;
  r.calls = tally.calls;
  records_.push_back(std::move(r));
}

void SpanLog::write_jsonl(std::ostream& out) const {
  const double origin = records_.empty() ? 0.0 : records_.front().start_s;
  out << std::setprecision(9);
  for (const SpanRecord& r : records_) {
    out << "{\"id\": " << r.id << ", \"parent\": " << r.parent
        << ", \"name\": \"" << r.name << "\", \"start_s\": "
        << r.start_s - origin << ", \"end_s\": " << r.end_s - origin;
    if (r.busy_s >= 0.0)
      out << ", \"busy_s\": " << r.busy_s << ", \"calls\": " << r.calls;
    out << "}\n";
  }
}

// ---------------------------------------------------------------- backend

BackendTally BackendTally::since(const BackendTally& before) const {
  const auto minus = [](const CallTally& a, const CallTally& b) {
    CallTally d = a;
    d.calls -= b.calls;
    d.busy_s -= b.busy_s;
    return d;
  };
  BackendTally d;
  d.wait_next = minus(wait_next, before.wait_next);
  d.submit = minus(submit, before.submit);
  d.progress = minus(progress, before.progress);
  d.completions = completions - before.completions;
  d.timers = timers - before.timers;
  d.compute_mops = compute_mops - before.compute_mops;
  return d;
}

template <typename F>
decltype(auto) TimedBackend::timed_call(CallTally BackendTally::*kind,
                                        F&& call) const {
  if (!timed_) {
    ++(total_.*kind).calls;
    ++(since_flush_.*kind).calls;
    return call();
  }
  const double start = wall_now();
  struct Stamp {
    const TimedBackend* self;
    CallTally BackendTally::*kind;
    double start;
    ~Stamp() {
      const double end = wall_now();
      (self->total_.*kind).add(start, end);
      (self->since_flush_.*kind).add(start, end);
    }
  } stamp{this, kind, start};
  return call();
}

grasp::Seconds TimedBackend::now() const { return inner_.now(); }

void TimedBackend::submit_compute(OpToken token, grasp::NodeId node,
                                  grasp::Mops work,
                                  std::function<void()> body) {
  total_.compute_mops += work.value;
  timed_call(&BackendTally::submit, [&] {
    inner_.submit_compute(token, node, work, std::move(body));
  });
}

void TimedBackend::submit_transfer(OpToken token, grasp::NodeId from,
                                   grasp::NodeId to, grasp::Bytes payload) {
  timed_call(&BackendTally::submit,
             [&] { inner_.submit_transfer(token, from, to, payload); });
}

void TimedBackend::submit_timer(OpToken token, grasp::Seconds delay) {
  timed_call(&BackendTally::submit,
             [&] { inner_.submit_timer(token, delay); });
}

bool TimedBackend::cancel_timer(OpToken token) {
  return timed_call(&BackendTally::submit,
                    [&] { return inner_.cancel_timer(token); });
}

void TimedBackend::submit_batch(std::vector<OpRequest> requests) {
  for (const OpRequest& r : requests)
    if (r.kind == OpRequest::Kind::Compute) total_.compute_mops += r.work.value;
  timed_call(&BackendTally::submit,
             [&] { inner_.submit_batch(std::move(requests)); });
}

double TimedBackend::compute_progress(OpToken token) const {
  return timed_call(&BackendTally::progress,
                    [&] { return inner_.compute_progress(token); });
}

std::optional<Completion> TimedBackend::wait_next() {
  std::optional<Completion> c =
      timed_call(&BackendTally::wait_next, [&] { return inner_.wait_next(); });
  if (c.has_value()) ++(c->is_timer ? total_.timers : total_.completions);
  return c;
}

std::size_t TimedBackend::in_flight() const { return inner_.in_flight(); }

void TimedBackend::flush(SpanLog& log, std::uint64_t parent) {
  log.aggregate("backend.wait_next", parent, since_flush_.wait_next);
  log.aggregate("backend.submit", parent, since_flush_.submit);
  log.aggregate("backend.compute_progress", parent, since_flush_.progress);
  since_flush_ = BackendTally{};
}

}  // namespace perfbench
