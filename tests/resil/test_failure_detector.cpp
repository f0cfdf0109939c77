#include "resil/failure_detector.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <string>

#include "resil/heartbeat.hpp"
#include "support/rng.hpp"

namespace grasp::resil {
namespace {

FailureDetector::Params params(double period = 1.0, double timeout = 3.0) {
  FailureDetector::Params p;
  p.heartbeat_period = Seconds{period};
  p.timeout = Seconds{timeout};
  return p;
}

TEST(FailureDetector, FreshNodeIsNotSuspect) {
  FailureDetector d(params());
  d.watch(NodeId{0}, Seconds{10.0});
  EXPECT_TRUE(d.suspects(Seconds{12.9}).empty());
}

TEST(FailureDetector, SilenceBeyondTimeoutMakesSuspect) {
  FailureDetector d(params(1.0, 3.0));
  d.watch(NodeId{0}, Seconds{0.0});
  d.heartbeat(NodeId{0}, Seconds{5.0});
  EXPECT_TRUE(d.suspects(Seconds{8.0}).empty());  // exactly at timeout: alive
  const auto s = d.suspects(Seconds{8.1});
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0], NodeId{0});
}

TEST(FailureDetector, StaleHeartbeatsIgnored) {
  FailureDetector d(params());
  d.watch(NodeId{0}, Seconds{0.0});
  d.heartbeat(NodeId{0}, Seconds{6.0});
  d.heartbeat(NodeId{0}, Seconds{2.0});  // out of order: must not rewind
  EXPECT_EQ(d.last_heartbeat(NodeId{0}).value, 6.0);
}

TEST(FailureDetector, UnwatchedNodesNeverReported) {
  FailureDetector d(params());
  d.watch(NodeId{0}, Seconds{0.0});
  d.watch(NodeId{1}, Seconds{0.0});
  d.unwatch(NodeId{0});
  d.heartbeat(NodeId{0}, Seconds{50.0});  // dropped: not watched
  EXPECT_EQ(d.last_heartbeat(NodeId{0}).value, -1.0);
  const auto s = d.suspects(Seconds{100.0});
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0], NodeId{1});
  EXPECT_EQ(d.watched(), std::vector<NodeId>{NodeId{1}});
}

TEST(FailureDetector, AdvanceSynthesisesHeartbeatsWhileAlive) {
  FailureDetector d(params(1.0, 3.0));
  d.watch(NodeId{0}, Seconds{0.0});
  d.watch(NodeId{1}, Seconds{0.0});
  // Node 1 dies at t=10: it answers pings strictly before then.
  const auto alive = [](NodeId n, Seconds t) {
    return n == NodeId{0} || t.value < 10.0;
  };
  d.advance(Seconds{9.5}, alive);
  EXPECT_TRUE(d.suspects(Seconds{9.5}).empty());
  d.advance(Seconds{14.0}, alive);
  EXPECT_EQ(d.last_heartbeat(NodeId{0}).value, 14.0);
  EXPECT_EQ(d.last_heartbeat(NodeId{1}).value, 9.0);  // last tick before death
  EXPECT_TRUE(d.suspects(Seconds{11.9}).empty());
  const auto s = d.suspects(Seconds{12.1});  // 9 + 3 < 12.1
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0], NodeId{1});
}

TEST(FailureDetector, AdvanceHandlesLargeClockJumps) {
  FailureDetector d(params(1.0, 5.0));
  d.watch(NodeId{0}, Seconds{0.0});
  d.advance(Seconds{20000.0}, [](NodeId, Seconds) { return true; });
  EXPECT_EQ(d.last_heartbeat(NodeId{0}).value, 20000.0);
  EXPECT_TRUE(d.suspects(Seconds{20004.0}).empty());
}

TEST(FailureDetector, ValidationErrors) {
  FailureDetector::Params bad;
  bad.heartbeat_period = Seconds{0.0};
  EXPECT_THROW(FailureDetector{bad}, std::invalid_argument);
  bad = {};
  bad.timeout = Seconds{-1.0};
  EXPECT_THROW(FailureDetector{bad}, std::invalid_argument);
}

// The full `now - last > limit` scan over every watched node: what
// suspects(now) returns whether or not it skipped its scan.
std::vector<NodeId> scan_suspects(const FailureDetector& d, Seconds now) {
  std::vector<NodeId> out;
  for (const NodeId n : d.watched())
    if (now - d.last_heartbeat(n) > d.effective_timeout(n)) out.push_back(n);
  return out;
}

// Queries at every watched node's deadline `last + limit`, one ulp either
// side of it, and at `now`, each asked twice in a row.
void expect_suspects_match_scan(FailureDetector& d, Seconds now,
                                const std::string& where) {
  std::vector<Seconds> probes{now};
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const NodeId n : d.watched()) {
    const double deadline =
        d.last_heartbeat(n).value + d.effective_timeout(n).value;
    probes.push_back(Seconds{deadline});
    probes.push_back(Seconds{std::nextafter(deadline, -kInf)});
    probes.push_back(Seconds{std::nextafter(deadline, kInf)});
  }
  for (const Seconds at : probes)
    for (int repeat = 0; repeat < 2; ++repeat)
      ASSERT_EQ(d.suspects(at), scan_suspects(d, at))
          << where << " at t=" << at.value << " repeat " << repeat;
}

// suspects() skips its scan while no deadline can have passed; random
// watch/unwatch/heartbeat/advance sequences check that the skip never
// hides a suspect, in both detection modes.
void run_detector_differential(DetectionMode mode) {
  constexpr std::uint64_t kNodes = 8;
  std::size_t suspect_answers = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    FailureDetector::Params p = params(1.0, 6.0);
    p.mode = mode;
    p.suspicion_sigma = 2.0;
    p.min_samples = 2;
    FailureDetector d(p);
    // Each node answers heartbeat ticks only inside its own up windows.
    std::vector<double> down_from(kNodes), down_for(kNodes);
    for (std::uint64_t n = 0; n < kNodes; ++n) {
      down_from[n] = rng.uniform(5.0, 80.0);
      down_for[n] = rng.uniform(0.5, 12.0);
    }
    const auto alive = [&](NodeId n, Seconds t) {
      const double since = t.value - down_from[n.value];
      return since < 0.0 || since >= down_for[n.value];
    };
    double now = 0.0;
    for (std::uint64_t n = 0; n < kNodes; n += 2) d.watch(NodeId{n}, Seconds{now});
    for (int step = 0; step < 300; ++step) {
      const NodeId node{rng.uniform_index(kNodes)};
      switch (rng.uniform_index(6)) {
        case 0:
          d.watch(node, Seconds{now});
          break;
        case 1:
          d.unwatch(node);
          break;
        case 2:
        case 3:
          // Jittered beats, some of them stale.
          d.heartbeat(node, Seconds{now - rng.uniform(0.0, 1.5)});
          break;
        default:
          now += rng.uniform(0.0, 1.7);
          d.advance(Seconds{now}, alive);
          break;
      }
      expect_suspects_match_scan(
          d, Seconds{now}, "seed " + std::to_string(seed) + " step " +
                               std::to_string(step));
      if (::testing::Test::HasFatalFailure()) return;
      suspect_answers += d.suspects(Seconds{now}).empty() ? 0 : 1;
    }
  }
  EXPECT_GT(suspect_answers, 100u);  // the sequences do produce suspects
}

TEST(FailureDetector, SkippedScanMatchesFullScanFixed) {
  run_detector_differential(DetectionMode::Fixed);
}

TEST(FailureDetector, SkippedScanMatchesFullScanAccrual) {
  run_detector_differential(DetectionMode::Accrual);
}

// Real transport: heartbeats travel as messages between ranks of the
// in-process world; the detector lives on rank 0.
TEST(HeartbeatTransport, DetectsSilentRankOverCommunicator) {
  mp::World world(4);
  FailureDetector detector(params(1.0, 3.0));
  for (int r = 1; r < 4; ++r)
    detector.watch(NodeId{static_cast<std::uint64_t>(r)}, Seconds{0.0});

  std::atomic<int> round{0};
  std::vector<NodeId> suspects;
  world.run([&](mp::Comm& comm) {
    // Four synchronised rounds; worker 3 goes silent from round 2.
    for (int step = 1; step <= 4; ++step) {
      if (comm.rank() != 0) {
        const bool silent = comm.rank() == 3 && step >= 2;
        if (!silent)
          send_heartbeat(comm, 0, NodeId{static_cast<std::uint64_t>(comm.rank())});
      }
      comm.barrier();
      if (comm.rank() == 0)
        drain_heartbeats(comm, detector, Seconds{static_cast<double>(step)});
      comm.barrier();
    }
    if (comm.rank() == 0) suspects = detector.suspects(Seconds{4.5});
  });
  // Ranks 1 and 2 heartbeated at t=4; rank 3 last at t=1 -> 4.5 - 1 > 3.
  ASSERT_EQ(suspects.size(), 1u);
  EXPECT_EQ(suspects[0], NodeId{3});
}

}  // namespace
}  // namespace grasp::resil
