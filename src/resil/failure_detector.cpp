#include "resil/failure_detector.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace grasp::resil {

FailureDetector::FailureDetector(Params params)
    : params_(params), last_(Seconds{kUnwatched}) {
  if (params_.heartbeat_period.value <= 0.0)
    throw std::invalid_argument(
        "FailureDetector: heartbeat_period must be positive");
  if (params_.timeout.value <= 0.0)
    throw std::invalid_argument("FailureDetector: timeout must be positive");
  if (params_.suspicion_sigma < 0.0)
    throw std::invalid_argument(
        "FailureDetector: suspicion_sigma must be non-negative");
  if (params_.min_effective.value < 0.0)
    throw std::invalid_argument(
        "FailureDetector: min_effective must be non-negative");
  if (params_.min_effective.value > params_.timeout.value)
    throw std::invalid_argument(
        "FailureDetector: min_effective cannot exceed the timeout hard cap");
  if (params_.min_samples == 0)
    throw std::invalid_argument(
        "FailureDetector: min_samples must be at least 1");
}

void FailureDetector::watch(NodeId node, Seconds now) {
  Seconds& last = last_[node];
  if (last.value == kUnwatched) ++watched_count_;
  last = now;
  quiet_dirty_ = true;
}

void FailureDetector::unwatch(NodeId node) {
  if (!watching(node)) return;
  last_[node] = Seconds{kUnwatched};
  --watched_count_;
  quiet_dirty_ = true;
}

bool FailureDetector::watching(NodeId node) const {
  return last_.at_or_default(node).value != kUnwatched;
}

void FailureDetector::credit(NodeId node, Seconds at) {
  Seconds& last = last_[node];
  if (at <= last) return;  // stale stamp
  if (params_.mode == DetectionMode::Accrual) {
    const double gap = at.value - last.value;
    // Gaps longer than the hard cap are survived outages (or the initial
    // watch-to-first-beat stretch after a long pause), not link cadence;
    // folding them in would inflate the mean toward the cap and neuter the
    // statistics.
    if (gap > 0.0 && gap <= params_.timeout.value) {
      BeatStats& s = stats_[node];
      ++s.n;
      const double delta = gap - s.mean;
      s.mean += delta / static_cast<double>(s.n);
      s.m2 += delta * (gap - s.mean);
    }
  }
  last = at;
  quiet_dirty_ = true;
}

void FailureDetector::heartbeat(NodeId node, Seconds at) {
  if (!watching(node)) return;  // not watched; drop
  credit(node, at);
}

void FailureDetector::advance(
    Seconds now, const std::function<bool(NodeId, Seconds)>& alive) {
  if (now <= last_advance_) return;
  const double period = params_.heartbeat_period.value;
  const auto first_tick =
      static_cast<long long>(std::floor(last_advance_.value / period)) + 1;
  const auto last_tick = static_cast<long long>(std::floor(now.value / period));
  if (first_tick <= last_tick) {
    const bool accrual = params_.mode == DetectionMode::Accrual;
    const std::size_t slots = last_.values().size();
    for (std::size_t slot = 0; slot < slots; ++slot) {
      if (last_.values()[slot].value == kUnwatched) continue;
      const NodeId node{slot};
      if (accrual) {
        // Every beat is an inter-arrival sample, so credit each alive tick
        // in order.  The window is typically a single period, so the
        // forward scan costs the same as the backward one below.
        for (long long k = first_tick; k <= last_tick; ++k) {
          const Seconds tick{static_cast<double>(k) * period};
          if (alive(node, tick)) credit(node, tick);
        }
      } else {
        // Latest alive tick wins; scan backwards and stop at the first hit
        // so large clock jumps stay cheap for healthy nodes.
        for (long long k = last_tick; k >= first_tick; --k) {
          const Seconds tick{static_cast<double>(k) * period};
          if (alive(node, tick)) {
            if (tick > last_.values()[slot]) {
              last_[node] = tick;
              quiet_dirty_ = true;
            }
            break;
          }
        }
      }
    }
  }
  last_advance_ = now;
}

Seconds FailureDetector::effective_timeout(NodeId node) const {
  const double cap = params_.timeout.value;
  if (params_.mode == DetectionMode::Fixed) return Seconds{cap};
  const BeatStats& s = stats_.at_or_default(node);
  if (s.n < params_.min_samples) return Seconds{cap};
  const double variance =
      s.n > 1 ? s.m2 / static_cast<double>(s.n) : 0.0;
  const double bound = s.mean + params_.suspicion_sigma * std::sqrt(variance);
  const double floor_s = params_.min_effective.value > 0.0
                             ? params_.min_effective.value
                             : 1.5 * params_.heartbeat_period.value;
  return Seconds{std::clamp(bound, std::min(floor_s, cap), cap)};
}

double FailureDetector::suspicion(NodeId node, Seconds now) const {
  const Seconds last = last_.at_or_default(node);
  if (last.value == kUnwatched) return 0.0;
  const double silence = std::max(0.0, now.value - last.value);
  return silence / effective_timeout(node).value;
}

std::size_t FailureDetector::beat_samples(NodeId node) const {
  return stats_.at_or_default(node).n;
}

std::vector<NodeId> FailureDetector::suspects(Seconds now) {
  std::vector<NodeId> out;
  if (!quiet_dirty_ && now.value < quiet_until_) return out;
  // The dense table is walked in id order, so the output needs no sort.
  const bool accrual = params_.mode == DetectionMode::Accrual;
  double earliest = std::numeric_limits<double>::infinity();
  for (std::size_t slot = 0; slot < last_.values().size(); ++slot) {
    const Seconds last = last_.values()[slot];
    if (last.value == kUnwatched) continue;
    const Seconds limit = accrual ? effective_timeout(NodeId{slot})
                                  : params_.timeout;
    if (now - last > limit) out.push_back(NodeId{slot});
    earliest = std::min(earliest, last.value + limit.value);
  }
  // Two ulps down: `last + limit` is rounded, and any now strictly below
  // the exact sum keeps `now - last` at or under `limit` after rounding.
  constexpr double kDown = -std::numeric_limits<double>::infinity();
  quiet_until_ = std::nextafter(std::nextafter(earliest, kDown), kDown);
  quiet_dirty_ = false;
  return out;
}

std::vector<NodeId> FailureDetector::watched() const {
  std::vector<NodeId> out;
  out.reserve(watched_count_);
  for (std::size_t slot = 0; slot < last_.values().size(); ++slot)
    if (last_.values()[slot].value != kUnwatched) out.push_back(NodeId{slot});
  return out;
}

Seconds FailureDetector::last_heartbeat(NodeId node) const {
  return last_.at_or_default(node);  // kUnwatched doubles as "not watched"
}

}  // namespace grasp::resil
