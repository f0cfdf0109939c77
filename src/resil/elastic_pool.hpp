// ElasticPool: the worker set as a membership-aware, self-trimming object.
//
// Calibration (Algorithm 1) selects the fittest subset; between
// recalibrations the set must still move — nodes crash or leave (remove),
// newcomers knock (probation -> fast-path admit), and members that degrade
// persistently are evicted so a full recalibration is not the only way to
// shrink.  Admission uses the one number a single probe chunk yields
// (observed seconds-per-Mop) compared against the calibrated baseline; the
// full statistical re-rank happens at the next Algorithm 1 pass.
//
// The pool also owns each node's busy/idle state (a node is busy while a
// chunk dispatched to it is in flight), so the farm's dispatch loop can
// visit just the idle workers.  Workers are kept as an indexed, ordered
// set: each gets a rank that grows in insertion order (reset assigns ranks
// in vector order, admit appends), a removal leaves a hole, and a bitmap
// indexed by rank marks the idle workers.  Rank order is the order
// `workers()` lists, and the order `for_each_idle` visits.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/flat_map.hpp"
#include "support/ids.hpp"

namespace grasp::resil {

class ElasticPool {
 public:
  struct Params {
    /// Admit a probationer when probe spm <= admit_ratio * baseline spm.
    double admit_ratio = 3.0;
    /// Evict a worker after `evict_after` consecutive observations with
    /// spm > evict_ratio * baseline.  0 disables eviction.
    double evict_ratio = 0.0;
    std::size_t evict_after = 3;
    /// Upper bound on the worker set (0 = unbounded).
    std::size_t max_workers = 0;
    /// Never shrink below this many workers through eviction.
    std::size_t min_workers = 1;
  };

  explicit ElasticPool(Params params);

  /// Install a calibrated worker set; clears probation and strike state.
  /// Busy state is kept: a chosen node may still have a chunk in flight.
  void reset(const std::vector<NodeId>& workers);

  /// The worker set in rank order (built on each call).
  [[nodiscard]] std::vector<NodeId> workers() const;
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool contains(NodeId node) const {
    return rank_of_.at_or_default(node) != 0;
  }

  /// Busy/idle state of any node, worker or not (probationers and departed
  /// nodes can hold chunks too).  Every node starts idle.
  void set_busy(NodeId node, bool busy);
  [[nodiscard]] bool busy(NodeId node) const {
    return busy_.at_or_default(node) != 0;
  }

  /// Call `visit(node)` for each idle worker in rank order until it returns
  /// false.  Idleness is read when the visit reaches a rank, so `visit` may
  /// mark nodes busy or idle and remove workers (the visited one included);
  /// it must not insert workers (reset, admit).
  template <class Visit>
  void for_each_idle(Visit&& visit) {
    for (std::size_t r = next_idle(0); r < by_rank_.size();
         r = next_idle(r + 1))
      if (!visit(by_rank_[r])) return;
  }

  /// Remove a worker (crash/leave).  Returns true when it was present.
  bool remove(NodeId node);

  /// A joined node starts in probation: it receives probe work but is not
  /// yet part of the worker set.
  void begin_probation(NodeId node);
  [[nodiscard]] bool in_probation(NodeId node) const;
  [[nodiscard]] const std::vector<NodeId>& probationers() const {
    return probation_;
  }

  /// Fast-path calibration verdict for a probationer.  Ends probation;
  /// returns true when the node was admitted into the worker set.
  bool admit(NodeId node, double probe_spm, double baseline_spm);

  /// Execution-time observation for a worker.  Returns true when the node
  /// was evicted (persistent degradation shrank the set).
  bool observe(NodeId node, double spm, double baseline_spm);

  /// Policy-driven eviction: the caller (e.g. the farm's economic
  /// checkpoint-vs-redo rule) has already decided this worker costs more
  /// than it saves.  Respects min_workers; returns true when the node was
  /// actually removed and counted as an eviction.
  bool force_evict(NodeId node);

  [[nodiscard]] std::size_t admissions() const { return admissions_; }
  [[nodiscard]] std::size_t rejections() const { return rejections_; }
  [[nodiscard]] std::size_t evictions() const { return evictions_; }

  [[nodiscard]] const Params& params() const { return params_; }

 private:
  /// Lowest idle rank at or after `from`; by_rank_.size() when none.
  [[nodiscard]] std::size_t next_idle(std::size_t from) const {
    for (std::size_t w = from / 64; w < idle_.size(); ++w) {
      std::uint64_t bits = idle_[w];
      if (w == from / 64) bits &= ~std::uint64_t{0} << (from % 64);
      if (bits != 0) return w * 64 + std::countr_zero(bits);
    }
    return by_rank_.size();
  }
  /// Rank `workers` 0, 1, ... in order (duplicates keep their first rank).
  void rerank(const std::vector<NodeId>& workers);
  void append(NodeId node);
  void set_idle_bit(std::size_t rank, bool idle);

  Params params_;
  /// Rank -> worker; NodeId::invalid() marks the hole a removal left.
  std::vector<NodeId> by_rank_;
  /// Node -> rank + 1; 0 means "not a worker".
  NodeMap<std::uint32_t> rank_of_;
  /// Bit r is set when by_rank_[r] is a worker that is not busy.
  std::vector<std::uint64_t> idle_;
  NodeMap<char> busy_;
  std::size_t size_ = 0;
  std::vector<NodeId> probation_;
  NodeMap<std::size_t> strikes_;
  std::size_t admissions_ = 0;
  std::size_t rejections_ = 0;
  std::size_t evictions_ = 0;
};

}  // namespace grasp::resil
