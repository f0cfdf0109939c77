#include "gridsim/churn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

#include "support/rng.hpp"

namespace grasp::gridsim {
namespace {

// The linear queries ChurnTimeline answered before it kept a per-node
// index: every event from t = 0, in time order, applied one by one.
bool linear_is_member(const ChurnTimeline& t, NodeId node, Seconds at) {
  bool member = t.initially_member(node);
  for (const auto& e : t.events()) {
    if (e.at > at) break;
    if (e.node != node) continue;
    switch (e.kind) {
      case ChurnEventKind::Crash:
      case ChurnEventKind::Leave:
        member = false;
        break;
      case ChurnEventKind::Join:
      case ChurnEventKind::Rejoin:
        member = true;
        break;
    }
  }
  return member;
}

bool linear_crashed_during(const ChurnTimeline& t, NodeId node, Seconds from,
                           Seconds to) {
  for (const auto& e : t.events()) {
    if (e.at > to) break;
    if (e.at > from && e.node == node && e.kind == ChurnEventKind::Crash)
      return true;
  }
  return false;
}

std::vector<ChurnEvent> linear_events_between(const ChurnTimeline& t,
                                              Seconds from, Seconds to) {
  std::vector<ChurnEvent> out;
  for (const auto& e : t.events()) {
    if (e.at > to) break;
    if (e.at > from) out.push_back(e);
  }
  return out;
}

// The reverse scan TaskFarm ran to find a node's latest crash for its
// detection-latency metric: walk the whole timeline back from the end.
std::optional<Seconds> linear_last_crash(const ChurnTimeline& t, NodeId node,
                                         Seconds at) {
  const auto& events = t.events();
  for (auto it = events.rbegin(); it != events.rend(); ++it) {
    if (it->at > at) continue;
    if (it->node == node && it->kind == ChurnEventKind::Crash) return it->at;
  }
  return std::nullopt;
}

bool same_events(const std::vector<ChurnEvent>& a,
                 const std::vector<ChurnEvent>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const ChurnEvent& x, const ChurnEvent& y) {
                      return x.at == y.at && x.kind == y.kind &&
                             x.node == y.node;
                    });
}

constexpr std::size_t kNodes = 12;
constexpr double kHorizon = 100.0;

/// A random timeline over nodes 0..kNodes-1.  Times are drawn from a coarse
/// grid so one node often has several events at one timestamp; every kind
/// appears, in any order (a Rejoin without a departure, a Crash of an
/// absent node), and a third of the nodes start absent.
ChurnTimeline random_timeline(Rng& rng, std::size_t events) {
  std::vector<ChurnEvent> list;
  for (std::size_t i = 0; i < events; ++i) {
    const double at = static_cast<double>(rng.uniform_index(40)) * 2.5;
    const auto kind = static_cast<ChurnEventKind>(rng.uniform_index(4));
    list.push_back({Seconds{at}, kind, NodeId{rng.uniform_index(kNodes)}});
  }
  std::vector<NodeId> absent;
  for (std::size_t n = 0; n < kNodes; ++n)
    if (rng.bernoulli(1.0 / 3.0)) absent.push_back(NodeId{n});
  return ChurnTimeline(std::move(list), std::move(absent));
}

/// Query times: every event time, just either side of it, before the
/// first event, past the horizon, and a few uniform draws.
std::vector<Seconds> probe_times(const ChurnTimeline& t, Rng& rng) {
  std::vector<Seconds> out{Seconds{-1.0}, Seconds{0.0}, Seconds{kHorizon},
                           Seconds{10.0 * kHorizon}};
  for (const auto& e : t.events()) {
    out.push_back(e.at);
    out.push_back(Seconds{e.at.value - 1e-9});
    out.push_back(Seconds{e.at.value + 1e-9});
  }
  for (int i = 0; i < 20; ++i)
    out.push_back(Seconds{rng.uniform(-5.0, kHorizon + 5.0)});
  return out;
}

TEST(ChurnTimelineProperty, IndexedQueriesMatchLinearScan) {
  std::size_t checks = 0, crashes_seen = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const ChurnTimeline t = random_timeline(rng, 5 + 3 * (seed % 20));
    const std::vector<Seconds> times = probe_times(t, rng);
    for (std::size_t i = 0; i < times.size(); ++i) {
      const Seconds from = times[i];
      const Seconds to = times[(i * 5 + seed) % times.size()];
      ASSERT_TRUE(same_events(t.events_between(from, to),
                              linear_events_between(t, from, to)))
          << "seed " << seed << " (" << from.value << ", " << to.value << "]";
    }
    // Node kNodes never has an event; kNodes + 5 is far outside the pool.
    for (std::size_t n = 0; n <= kNodes + 5; ++n) {
      const NodeId node{n};
      for (const Seconds at : times) {
        ASSERT_EQ(t.is_member(node, at), linear_is_member(t, node, at))
            << "seed " << seed << " node " << n << " t " << at.value;
        ++checks;
      }
      for (const Seconds at : times) {
        // Covers ties (several events of one node at one time) and
        // queries before the node's first crash.
        ASSERT_EQ(t.last_crash_at_or_before(node, at),
                  linear_last_crash(t, node, at))
            << "seed " << seed << " node " << n << " t " << at.value;
        ++checks;
      }
      for (std::size_t i = 0; i < times.size(); ++i) {
        // Windows between probe pairs, including empty and reversed ones.
        const Seconds from = times[i];
        const Seconds to = times[(i * 7 + seed) % times.size()];
        const bool want = linear_crashed_during(t, node, from, to);
        ASSERT_EQ(t.crashed_during(node, from, to), want)
            << "seed " << seed << " node " << n << " (" << from.value << ", "
            << to.value << "]";
        crashes_seen += want ? 1 : 0;
        ++checks;
      }
    }
  }
  EXPECT_GT(checks, 10000u);
  EXPECT_GT(crashes_seen, 100u);  // the windows do catch crashes
}

TEST(ChurnTimelineProperty, EqualTimestampsApplyInInputOrder) {
  // Three events on node 1 at t = 5: the last one listed decides.
  const ChurnTimeline t({{Seconds{5.0}, ChurnEventKind::Leave, NodeId{1}},
                         {Seconds{5.0}, ChurnEventKind::Rejoin, NodeId{1}},
                         {Seconds{2.0}, ChurnEventKind::Join, NodeId{2}},
                         {Seconds{5.0}, ChurnEventKind::Crash, NodeId{1}}},
                        {NodeId{2}});
  EXPECT_TRUE(t.is_member(NodeId{1}, Seconds{4.9}));
  EXPECT_FALSE(t.is_member(NodeId{1}, Seconds{5.0}));
  EXPECT_TRUE(t.crashed_during(NodeId{1}, Seconds{4.0}, Seconds{5.0}));
  EXPECT_EQ(t.last_crash_at_or_before(NodeId{1}, Seconds{5.0}),
            Seconds{5.0});
  EXPECT_EQ(t.last_crash_at_or_before(NodeId{1}, Seconds{4.9}), std::nullopt);
  EXPECT_EQ(t.last_crash_at_or_before(NodeId{2}, Seconds{9.0}), std::nullopt);
  EXPECT_FALSE(t.crashed_during(NodeId{1}, Seconds{5.0}, Seconds{9.0}));
  EXPECT_FALSE(t.is_member(NodeId{2}, Seconds{1.0}));  // absent until Join
  EXPECT_TRUE(t.is_member(NodeId{2}, Seconds{2.0}));
  // events() still lists every event in time order for events_between.
  ASSERT_EQ(t.events().size(), 4u);
  EXPECT_EQ(t.events().front().node, NodeId{2});
  EXPECT_EQ(t.events_between(Seconds{2.0}, Seconds{5.0}).size(), 3u);
}

TEST(ChurnTimelineProperty, GeneratedScheduleMatchesLinearScan) {
  std::vector<NodeId> pool;
  for (std::size_t n = 0; n < 40; ++n) pool.push_back(NodeId{n});
  ChurnModel::Params p;
  p.mtbf = 30.0;
  p.horizon = Seconds{400.0};
  p.seed = 17;
  const ChurnTimeline t = ChurnModel::generate(pool, p);
  ASSERT_GT(t.events().size(), 100u);
  for (const NodeId node : pool) {
    for (double at = 0.0; at <= 420.0; at += 3.5) {
      ASSERT_EQ(t.is_member(node, Seconds{at}),
                linear_is_member(t, node, Seconds{at}));
      ASSERT_EQ(t.crashed_during(node, Seconds{at}, Seconds{at + 20.0}),
                linear_crashed_during(t, node, Seconds{at}, Seconds{at + 20.0}));
      ASSERT_EQ(t.last_crash_at_or_before(node, Seconds{at}),
                linear_last_crash(t, node, Seconds{at}));
    }
  }
}

}  // namespace
}  // namespace grasp::gridsim
