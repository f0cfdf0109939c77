#include "resil/elastic_pool.hpp"

#include <algorithm>
#include <stdexcept>

namespace grasp::resil {

namespace {

bool erase_value(std::vector<NodeId>& v, NodeId node) {
  const auto it = std::find(v.begin(), v.end(), node);
  if (it == v.end()) return false;
  v.erase(it);
  return true;
}

}  // namespace

ElasticPool::ElasticPool(Params params) : params_(params) {
  if (params_.admit_ratio <= 0.0)
    throw std::invalid_argument("ElasticPool: admit_ratio must be positive");
  if (params_.evict_ratio < 0.0)
    throw std::invalid_argument("ElasticPool: evict_ratio must be >= 0");
  if (params_.evict_after == 0)
    throw std::invalid_argument("ElasticPool: evict_after must be positive");
}

void ElasticPool::reset(const std::vector<NodeId>& workers) {
  rerank(workers);
  probation_.clear();
  strikes_.clear();
}

void ElasticPool::rerank(const std::vector<NodeId>& workers) {
  for (const NodeId n : by_rank_)
    if (n.is_valid()) rank_of_[n] = 0;
  by_rank_.clear();
  idle_.clear();
  size_ = 0;
  for (const NodeId n : workers) append(n);
}

std::vector<NodeId> ElasticPool::workers() const {
  std::vector<NodeId> out;
  out.reserve(size_);
  for (const NodeId n : by_rank_)
    if (n.is_valid()) out.push_back(n);
  return out;
}

void ElasticPool::set_idle_bit(std::size_t rank, bool idle) {
  const std::uint64_t bit = std::uint64_t{1} << (rank % 64);
  if (idle) idle_[rank / 64] |= bit;
  else idle_[rank / 64] &= ~bit;
}

void ElasticPool::append(NodeId node) {
  if (contains(node)) return;
  // Holes only ever come from removals; once they outnumber the workers,
  // renumber the survivors in order (ranks are relative, so the visit
  // order is unchanged).  Only insertions compact, so a for_each_idle
  // visit that removes workers never sees ranks move under it.
  if (by_rank_.size() - size_ > std::max<std::size_t>(16, size_))
    rerank(workers());
  const std::size_t rank = by_rank_.size();
  by_rank_.push_back(node);
  rank_of_[node] = static_cast<std::uint32_t>(rank + 1);
  if (rank / 64 >= idle_.size()) idle_.push_back(0);
  set_idle_bit(rank, !busy(node));
  ++size_;
}

void ElasticPool::set_busy(NodeId node, bool busy) {
  busy_[node] = busy ? 1 : 0;
  if (const std::uint32_t r = rank_of_.at_or_default(node); r != 0)
    set_idle_bit(r - 1, !busy);
}

bool ElasticPool::remove(NodeId node) {
  strikes_[node] = 0;
  erase_value(probation_, node);
  const std::uint32_t r = rank_of_.at_or_default(node);
  if (r == 0) return false;
  by_rank_[r - 1] = NodeId::invalid();
  set_idle_bit(r - 1, false);
  rank_of_[node] = 0;
  --size_;
  return true;
}

void ElasticPool::begin_probation(NodeId node) {
  if (contains(node) || in_probation(node)) return;
  probation_.push_back(node);
}

bool ElasticPool::in_probation(NodeId node) const {
  return std::find(probation_.begin(), probation_.end(), node) !=
         probation_.end();
}

bool ElasticPool::admit(NodeId node, double probe_spm, double baseline_spm) {
  erase_value(probation_, node);
  if (contains(node)) return true;  // recalibration admitted it meanwhile
  const bool room = params_.max_workers == 0 || size_ < params_.max_workers;
  const bool fit =
      baseline_spm <= 0.0 || probe_spm <= params_.admit_ratio * baseline_spm;
  if (room && fit) {
    append(node);
    ++admissions_;
    return true;
  }
  ++rejections_;
  return false;
}

bool ElasticPool::force_evict(NodeId node) {
  if (!contains(node)) return false;
  if (size_ <= params_.min_workers) return false;
  remove(node);
  ++evictions_;
  return true;
}

bool ElasticPool::observe(NodeId node, double spm, double baseline_spm) {
  if (params_.evict_ratio <= 0.0 || baseline_spm <= 0.0) return false;
  if (!contains(node)) return false;
  if (spm > params_.evict_ratio * baseline_spm) {
    if (++strikes_[node] >= params_.evict_after &&
        size_ > params_.min_workers) {
      remove(node);
      ++evictions_;
      return true;
    }
  } else {
    strikes_[node] = 0;
  }
  return false;
}

}  // namespace grasp::resil
