#include "reference.hpp"

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "probes.hpp"

namespace perfbench {
namespace {

// A small discrete-event loop with the simulator's mix of work: a binary
// heap of timed events, scattered per-node state, hash-map lookups and
// short-lived heap objects.
struct Event {
  double at;
  std::uint32_t node;
  std::uint32_t seq;

  bool operator>(const Event& o) const {
    return at != o.at ? at > o.at : seq > o.seq;
  }
};

constexpr std::uint32_t kNodes = 1u << 16;
constexpr std::size_t kQueued = 1u << 13;
constexpr std::size_t kKeys = 1u << 14;
constexpr std::size_t kSlots = 256;
constexpr std::uint32_t kSteps = 300'000;

std::uint64_t next(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

std::uint64_t reference_loop() {
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::vector<double> busy(kNodes, 0.0);
  std::unordered_map<std::uint32_t, std::uint64_t> owner;
  owner.reserve(kKeys);
  std::vector<std::unique_ptr<std::array<double, 6>>> slots(kSlots);
  std::uint32_t seq = 0;
  for (std::size_t i = 0; i < kQueued; ++i)
    queue.push({static_cast<double>(next(x) % 1000),
                static_cast<std::uint32_t>(next(x) % kNodes), seq++});
  std::uint64_t sum = 0;
  for (std::uint32_t step = 0; step < kSteps; ++step) {
    const Event e = queue.top();
    queue.pop();
    busy[e.node] += 1.0 + static_cast<double>(e.seq & 7);
    std::uint64_t& o = owner[static_cast<std::uint32_t>(next(x) % kKeys)];
    o += e.node;
    sum += o;
    if ((step & 7) == 0) {
      auto& slot = slots[step / 8 % kSlots];
      slot = std::make_unique<std::array<double, 6>>();
      (*slot)[e.seq % 6] = busy[e.node];
    }
    queue.push({e.at + static_cast<double>(next(x) % 64) + 1.0,
                static_cast<std::uint32_t>(next(x) % kNodes), seq++});
  }
  return sum + static_cast<std::uint64_t>(busy[sum % kNodes]);
}

volatile std::uint64_t g_sink = 0;

}  // namespace

double reference_cpu_s() {
  const Stopwatch clock;
  g_sink = g_sink + reference_loop();
  return clock.cpu_s();
}

}  // namespace perfbench
