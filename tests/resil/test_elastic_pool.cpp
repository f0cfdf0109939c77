#include "resil/elastic_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "support/rng.hpp"

namespace grasp::resil {
namespace {

ElasticPool::Params params() {
  ElasticPool::Params p;
  p.admit_ratio = 2.0;
  p.evict_ratio = 3.0;
  p.evict_after = 3;
  return p;
}

TEST(ElasticPool, AdmitsFitProbationerAndParksSlowOne) {
  ElasticPool pool(params());
  pool.reset({NodeId{0}, NodeId{1}});

  pool.begin_probation(NodeId{2});
  pool.begin_probation(NodeId{3});
  EXPECT_TRUE(pool.in_probation(NodeId{2}));
  EXPECT_FALSE(pool.contains(NodeId{2}));

  EXPECT_TRUE(pool.admit(NodeId{2}, 1.5, 1.0));   // 1.5 <= 2 x baseline
  EXPECT_FALSE(pool.admit(NodeId{3}, 2.5, 1.0));  // 2.5 > 2 x baseline
  EXPECT_TRUE(pool.contains(NodeId{2}));
  EXPECT_FALSE(pool.contains(NodeId{3}));
  EXPECT_FALSE(pool.in_probation(NodeId{2}));
  EXPECT_FALSE(pool.in_probation(NodeId{3}));
  EXPECT_EQ(pool.admissions(), 1u);
  EXPECT_EQ(pool.rejections(), 1u);
}

TEST(ElasticPool, MaxWorkersBoundsGrowth) {
  ElasticPool::Params p = params();
  p.max_workers = 2;
  ElasticPool pool(p);
  pool.reset({NodeId{0}, NodeId{1}});
  pool.begin_probation(NodeId{2});
  EXPECT_FALSE(pool.admit(NodeId{2}, 0.5, 1.0));  // fit but full
}

TEST(ElasticPool, EvictsAfterConsecutiveBadObservations) {
  ElasticPool pool(params());
  pool.reset({NodeId{0}, NodeId{1}, NodeId{2}});

  EXPECT_FALSE(pool.observe(NodeId{2}, 4.0, 1.0));  // strike 1
  EXPECT_FALSE(pool.observe(NodeId{2}, 4.0, 1.0));  // strike 2
  EXPECT_FALSE(pool.observe(NodeId{2}, 1.0, 1.0));  // healthy: reset
  EXPECT_FALSE(pool.observe(NodeId{2}, 4.0, 1.0));
  EXPECT_FALSE(pool.observe(NodeId{2}, 4.0, 1.0));
  EXPECT_TRUE(pool.observe(NodeId{2}, 4.0, 1.0));  // strike 3: evicted
  EXPECT_FALSE(pool.contains(NodeId{2}));
  EXPECT_EQ(pool.evictions(), 1u);
  // Observations for non-members are ignored.
  EXPECT_FALSE(pool.observe(NodeId{2}, 9.0, 1.0));
}

TEST(ElasticPool, EvictionRespectsMinWorkers) {
  ElasticPool::Params p = params();
  p.min_workers = 1;
  ElasticPool pool(p);
  pool.reset({NodeId{0}});
  for (int i = 0; i < 10; ++i)
    EXPECT_FALSE(pool.observe(NodeId{0}, 100.0, 1.0));
  EXPECT_TRUE(pool.contains(NodeId{0}));  // last worker is never evicted
}

TEST(ElasticPool, RemoveCoversWorkersAndProbationers) {
  ElasticPool pool(params());
  pool.reset({NodeId{0}, NodeId{1}});
  pool.begin_probation(NodeId{2});
  EXPECT_TRUE(pool.remove(NodeId{0}));
  EXPECT_FALSE(pool.remove(NodeId{0}));  // already gone
  EXPECT_FALSE(pool.remove(NodeId{2}));  // probationer, not a worker
  EXPECT_FALSE(pool.in_probation(NodeId{2}));  // but probation ended
}

TEST(ElasticPool, ResetClearsProbationAndStrikes) {
  ElasticPool pool(params());
  pool.reset({NodeId{0}, NodeId{1}});
  pool.begin_probation(NodeId{5});
  (void)pool.observe(NodeId{1}, 9.0, 1.0);
  (void)pool.observe(NodeId{1}, 9.0, 1.0);
  pool.reset({NodeId{0}, NodeId{1}});
  EXPECT_FALSE(pool.in_probation(NodeId{5}));
  // Strikes were cleared: two more bad rounds are not enough to evict.
  EXPECT_FALSE(pool.observe(NodeId{1}, 9.0, 1.0));
  EXPECT_FALSE(pool.observe(NodeId{1}, 9.0, 1.0));
  EXPECT_TRUE(pool.contains(NodeId{1}));
}

TEST(ElasticPool, BusyStateOutlivesMembership) {
  ElasticPool pool(params());
  pool.reset({NodeId{0}, NodeId{1}, NodeId{2}});
  pool.set_busy(NodeId{1}, true);
  pool.set_busy(NodeId{7}, true);  // a probationer's probe, say
  std::vector<NodeId> idle;
  pool.for_each_idle([&](NodeId n) {
    idle.push_back(n);
    return true;
  });
  EXPECT_EQ(idle, (std::vector<NodeId>{NodeId{0}, NodeId{2}}));
  // A busy node re-entering the set stays busy until its chunk returns.
  EXPECT_TRUE(pool.remove(NodeId{1}));
  pool.reset({NodeId{1}, NodeId{0}});
  EXPECT_TRUE(pool.busy(NodeId{1}));
  EXPECT_TRUE(pool.busy(NodeId{7}));
  idle.clear();
  pool.for_each_idle([&](NodeId n) {
    idle.push_back(n);
    return true;
  });
  EXPECT_EQ(idle, std::vector<NodeId>{NodeId{0}});
}

// The worker-set bookkeeping ElasticPool kept before it ranked its
// workers: one vector in insertion order, linear find and erase, plus the
// farm's per-node busy flags.
struct VectorPool {
  ElasticPool::Params params;
  std::vector<NodeId> workers;
  std::vector<NodeId> probation;
  std::map<NodeId, std::size_t> strikes;
  std::map<NodeId, bool> busy;

  bool contains(NodeId n) const {
    return std::find(workers.begin(), workers.end(), n) != workers.end();
  }
  static bool erase_value(std::vector<NodeId>& v, NodeId n) {
    const auto it = std::find(v.begin(), v.end(), n);
    if (it == v.end()) return false;
    v.erase(it);
    return true;
  }
  void reset(std::vector<NodeId> w) {
    workers = std::move(w);
    probation.clear();
    strikes.clear();
  }
  bool remove(NodeId n) {
    strikes.erase(n);
    erase_value(probation, n);
    return erase_value(workers, n);
  }
  void begin_probation(NodeId n) {
    if (contains(n) ||
        std::find(probation.begin(), probation.end(), n) != probation.end())
      return;
    probation.push_back(n);
  }
  bool admit(NodeId n, double probe_spm, double baseline_spm) {
    erase_value(probation, n);
    if (contains(n)) return true;
    const bool room =
        params.max_workers == 0 || workers.size() < params.max_workers;
    const bool fit =
        baseline_spm <= 0.0 || probe_spm <= params.admit_ratio * baseline_spm;
    if (!room || !fit) return false;
    workers.push_back(n);
    return true;
  }
  bool force_evict(NodeId n) {
    if (!contains(n) || workers.size() <= params.min_workers) return false;
    remove(n);
    return true;
  }
  bool observe(NodeId n, double spm, double baseline_spm) {
    if (params.evict_ratio <= 0.0 || baseline_spm <= 0.0) return false;
    if (!contains(n)) return false;
    if (spm > params.evict_ratio * baseline_spm) {
      if (++strikes[n] >= params.evict_after &&
          workers.size() > params.min_workers) {
        remove(n);
        return true;
      }
    } else {
      strikes[n] = 0;
    }
    return false;
  }
};

// Random reset/admit/remove/observe/force_evict/busy sequences: the ranked
// pool lists the same workers and visits the same idle workers in the same
// order as the vector reference.  Some visits remove the worker they are
// on, as the farm's dispatch loop does when a dispatch fails; the
// reference iterates a copy and skips busy workers, as that loop did.
TEST(ElasticPool, RankedSetMatchesVectorReference) {
  constexpr std::uint64_t kNodes = 48;
  std::size_t visits = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    ElasticPool::Params p = params();
    p.min_workers = 2;
    p.max_workers = seed % 3 == 0 ? 20 : 0;
    ElasticPool pool(p);
    VectorPool ref{p, {}, {}, {}, {}};
    const auto random_set = [&] {
      std::vector<NodeId> out;
      for (std::uint64_t n = 0; n < kNodes; ++n)
        if (rng.bernoulli(0.3)) out.push_back(NodeId{n});
      std::shuffle(out.begin(), out.end(), rng);
      return out;
    };
    const std::vector<NodeId> initial = random_set();
    pool.reset(initial);
    ref.reset(initial);
    for (int step = 0; step < 400; ++step) {
      const NodeId node{rng.uniform_index(kNodes)};
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      switch (rng.uniform_index(9)) {
        case 0:
          if (rng.bernoulli(0.1)) {
            const std::vector<NodeId> set = random_set();
            pool.reset(set);
            ref.reset(set);
          }
          break;
        case 1: {
          pool.begin_probation(node);
          ref.begin_probation(node);
          const double spm = rng.uniform(0.5, 3.0);
          ASSERT_EQ(pool.admit(node, spm, 1.0), ref.admit(node, spm, 1.0))
              << where;
          break;
        }
        case 2:
          ASSERT_EQ(pool.remove(node), ref.remove(node)) << where;
          break;
        case 3: {
          const double spm = rng.uniform(0.5, 5.0);
          ASSERT_EQ(pool.observe(node, spm, 1.0), ref.observe(node, spm, 1.0))
              << where;
          break;
        }
        case 4:
          ASSERT_EQ(pool.force_evict(node), ref.force_evict(node)) << where;
          break;
        case 5:
        case 6: {
          const bool busy = rng.bernoulli(0.5);
          pool.set_busy(node, busy);
          ref.busy[node] = busy;
          break;
        }
        default: {
          // A dispatch round: stop early sometimes, mark visited workers
          // busy, and remove some of them mid-visit.
          const std::size_t budget = rng.uniform_index(kNodes);
          Rng choice = rng.split(static_cast<std::uint64_t>(step));
          Rng ref_choice = choice;
          std::vector<NodeId> got, want;
          pool.for_each_idle([&](NodeId n) {
            if (got.size() >= budget) return false;
            got.push_back(n);
            if (choice.bernoulli(0.2)) pool.remove(n);
            else pool.set_busy(n, choice.bernoulli(0.7));
            return true;
          });
          const std::vector<NodeId> copy = ref.workers;
          for (const NodeId n : copy) {
            if (want.size() >= budget) break;
            if (ref.busy[n]) continue;
            want.push_back(n);
            if (ref_choice.bernoulli(0.2)) ref.remove(n);
            else ref.busy[n] = ref_choice.bernoulli(0.7);
          }
          ASSERT_EQ(got, want) << where;
          visits += got.size();
          break;
        }
      }
      ASSERT_EQ(pool.workers(), ref.workers) << where;
      ASSERT_EQ(pool.size(), ref.workers.size()) << where;
      for (std::uint64_t n = 0; n < kNodes; ++n) {
        const NodeId id{n};
        ASSERT_EQ(pool.contains(id), ref.contains(id)) << where;
        ASSERT_EQ(pool.busy(id), ref.busy[id]) << where;
      }
      ASSERT_EQ(pool.probationers(), ref.probation) << where;
    }
  }
  EXPECT_GT(visits, 1000u);
}

// A long admit/remove cycle without a reset leaves far more holes than
// workers, so the pool renumbers its ranks; the order must survive that.
TEST(ElasticPool, RenumberingKeepsInsertionOrder) {
  ElasticPool pool(params());
  std::vector<NodeId> want{NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}};
  pool.reset(want);
  for (std::uint64_t n = 4; n < 200; ++n) {
    const NodeId joiner{n};
    pool.begin_probation(joiner);
    ASSERT_TRUE(pool.admit(joiner, 1.0, 1.0));
    want.push_back(joiner);
    // Drop the second-oldest worker; keep node 0 so the order has a
    // fixed anchor across every renumbering.
    ASSERT_TRUE(pool.remove(want[1]));
    want.erase(want.begin() + 1);
    pool.set_busy(joiner, n % 3 == 0);
    ASSERT_EQ(pool.workers(), want) << "after admitting " << n;
  }
  std::vector<NodeId> idle, want_idle;
  for (const NodeId n : want)
    if (n.value == 0 || n.value % 3 != 0) want_idle.push_back(n);
  pool.for_each_idle([&](NodeId n) {
    idle.push_back(n);
    return true;
  });
  EXPECT_EQ(idle, want_idle);
}

TEST(ElasticPool, ValidationErrors) {
  ElasticPool::Params bad;
  bad.admit_ratio = 0.0;
  EXPECT_THROW(ElasticPool{bad}, std::invalid_argument);
  bad = {};
  bad.evict_after = 0;
  EXPECT_THROW(ElasticPool{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace grasp::resil
