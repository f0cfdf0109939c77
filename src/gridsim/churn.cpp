#include "gridsim/churn.hpp"

#include <algorithm>

#include "support/rng.hpp"

namespace grasp::gridsim {

const char* to_string(ChurnEventKind kind) {
  switch (kind) {
    case ChurnEventKind::Crash: return "crash";
    case ChurnEventKind::Leave: return "leave";
    case ChurnEventKind::Join: return "join";
    case ChurnEventKind::Rejoin: return "rejoin";
  }
  return "unknown";
}

ChurnTimeline::ChurnTimeline(std::vector<ChurnEvent> events,
                             const std::vector<NodeId>& initially_absent)
    : events_(std::move(events)) {
  // Stable sort by time.  Timelines are commonly a generated (sorted)
  // schedule with a few events appended, so only the unsorted tail is
  // sorted and then merged in; inplace_merge keeps the prefix's events
  // ahead of equal-time tail events, so the result is the stable order.
  const auto by_time = [](const ChurnEvent& a, const ChurnEvent& b) {
    return a.at < b.at;
  };
  const auto tail =
      std::is_sorted_until(events_.begin(), events_.end(), by_time);
  std::stable_sort(tail, events_.end(), by_time);
  std::inplace_merge(events_.begin(), tail, events_.end(), by_time);
  for (const NodeId node : initially_absent) runs_[node].absent = true;
  // Counting sort by node, stable because it scatters in events_ order:
  // count each node's events, turn the counts into run offsets, then place
  // every event at its run's fill cursor (`end`).
  for (const ChurnEvent& e : events_) ++runs_[e.node].end;
  std::uint32_t offset = 0;
  for (NodeId::rep_type n = 0; n < runs_.values().size(); ++n) {
    Run& run = runs_[NodeId{n}];
    run.begin = offset;
    offset += run.end;
    run.end = run.begin;
  }
  times_.resize(events_.size());
  kinds_.resize(events_.size());
  for (const ChurnEvent& e : events_) {
    const std::uint32_t at = runs_[e.node].end++;
    times_[at] = e.at;
    kinds_[at] = e.kind;
  }
}

std::span<const Seconds> ChurnTimeline::times_of(const Run& run) const {
  return std::span<const Seconds>(times_).subspan(run.begin,
                                                  run.end - run.begin);
}

namespace {

/// Number of times in a sorted run at or before t.
std::size_t count_until(std::span<const Seconds> run, Seconds t) {
  return static_cast<std::size_t>(
      std::upper_bound(run.begin(), run.end(), t) - run.begin());
}

}  // namespace

std::size_t ChurnTimeline::count(ChurnEventKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(events_.begin(), events_.end(),
                    [kind](const ChurnEvent& e) { return e.kind == kind; }));
}

bool ChurnTimeline::is_member(NodeId node, Seconds t) const {
  // The state after every event at or before t is the last such event's.
  const Run& run = runs_.at_or_default(node);
  const std::size_t applied = count_until(times_of(run), t);
  if (applied == 0) return !run.absent;
  const ChurnEventKind kind = kinds_[run.begin + applied - 1];
  return kind == ChurnEventKind::Join || kind == ChurnEventKind::Rejoin;
}

bool ChurnTimeline::crashed_during(NodeId node, Seconds from,
                                   Seconds to) const {
  if (!(from < to)) return false;
  const Run& run = runs_.at_or_default(node);
  const std::span<const Seconds> times = times_of(run);
  const std::size_t end = run.begin + count_until(times, to);
  for (std::size_t i = run.begin + count_until(times, from); i < end; ++i)
    if (kinds_[i] == ChurnEventKind::Crash) return true;
  return false;
}

std::optional<Seconds> ChurnTimeline::last_crash_at_or_before(
    NodeId node, Seconds t) const {
  const Run& run = runs_.at_or_default(node);
  for (std::size_t i = run.begin + count_until(times_of(run), t);
       i > run.begin; --i)
    if (kinds_[i - 1] == ChurnEventKind::Crash) return times_[i - 1];
  return std::nullopt;
}

std::vector<ChurnEvent> ChurnTimeline::events_between(Seconds from,
                                                      Seconds to) const {
  if (!(from < to)) return {};
  const auto after = [](Seconds t, const ChurnEvent& e) { return t < e.at; };
  return std::vector<ChurnEvent>(
      std::upper_bound(events_.begin(), events_.end(), from, after),
      std::upper_bound(events_.begin(), events_.end(), to, after));
}

std::vector<NodeId> ChurnTimeline::members_at(const std::vector<NodeId>& pool,
                                              Seconds t) const {
  std::vector<NodeId> out;
  out.reserve(pool.size());
  for (const NodeId n : pool)
    if (is_member(n, t)) out.push_back(n);
  return out;
}

ChurnTimeline ChurnModel::generate(const std::vector<NodeId>& churnable,
                                   const Params& params) {
  std::vector<ChurnEvent> events;
  Rng master(params.seed);
  for (const NodeId node : churnable) {
    // Independent stream per node: a node's schedule depends only on the
    // master seed and its position, never on other nodes' draw counts.
    Rng rng = master.split(node.value);
    double t = params.warmup.value + rng.exponential(1.0 / params.mtbf);
    while (t < params.horizon.value) {
      const bool crash = rng.bernoulli(params.crash_fraction);
      events.push_back({Seconds{t},
                        crash ? ChurnEventKind::Crash : ChurnEventKind::Leave,
                        node});
      if (!rng.bernoulli(params.rejoin_probability)) break;  // gone for good
      const double delay =
          rng.exponential(1.0 / std::max(1e-9, params.mean_rejoin_delay.value));
      const double back = t + std::max(1.0, delay);
      if (back >= params.horizon.value) break;
      events.push_back({Seconds{back}, ChurnEventKind::Rejoin, node});
      t = back + rng.exponential(1.0 / params.mtbf);
    }
  }
  return ChurnTimeline(std::move(events));
}

}  // namespace grasp::gridsim
