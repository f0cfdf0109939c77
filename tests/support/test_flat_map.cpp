#include "support/flat_map.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "support/rng.hpp"

namespace grasp {
namespace {

/// The contract FlatMap had as a plain vector: insertion order, linear
/// find, order-preserving erase.  The indexed map must behave identically.
class ReferenceMap {
 public:
  using Item = std::pair<std::uint64_t, int>;

  [[nodiscard]] const int* find(std::uint64_t key) const {
    const auto it = locate(key);
    return it == items_.end() ? nullptr : &it->second;
  }
  void emplace(std::uint64_t key, int value) { items_.emplace_back(key, value); }
  bool erase(std::uint64_t key) {
    const auto it = locate(key);
    if (it == items_.end()) return false;
    items_.erase(it);
    return true;
  }
  std::pair<bool, int> take(std::uint64_t key) {
    const auto it = locate(key);
    if (it == items_.end()) return {false, 0};
    const int value = it->second;
    items_.erase(it);
    return {true, value};
  }
  template <typename Pred>
  std::vector<Item> erase_if(Pred pred) {
    std::vector<Item> out;
    for (auto it = items_.begin(); it != items_.end();) {
      if (pred(*it)) {
        out.push_back(*it);
        it = items_.erase(it);
      } else {
        ++it;
      }
    }
    return out;
  }
  void clear() { items_.clear(); }
  [[nodiscard]] const std::vector<Item>& items() const { return items_; }

 private:
  [[nodiscard]] std::vector<Item>::const_iterator locate(
      std::uint64_t key) const {
    return std::find_if(items_.begin(), items_.end(),
                        [key](const Item& i) { return i.first == key; });
  }
  std::vector<Item>::iterator locate(std::uint64_t key) {
    return std::find_if(items_.begin(), items_.end(),
                        [key](const Item& i) { return i.first == key; });
  }

  std::vector<Item> items_;
};

std::vector<std::pair<std::uint64_t, int>> contents(
    const FlatMap<std::uint64_t, int>& map) {
  std::vector<std::pair<std::uint64_t, int>> out;
  for (const auto& item : map) out.emplace_back(item.key, item.value);
  return out;
}

/// Bit-packed like the engines' operation tokens: kind and shard in the
/// high bits, a sequence number below.
std::uint64_t token_key(std::uint64_t slot) {
  return ((slot % 5) << 56) | ((slot % 7) << 40) | slot;
}

TEST(FlatMap, DifferentialAgainstLinearReference) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    FlatMap<std::uint64_t, int> map;
    ReferenceMap ref;
    std::uint64_t next_key = 0;
    std::size_t peak = 0;
    std::size_t drains = 0;
    // The target live size swings between small and a few hundred, so the
    // tombstone count crosses the compaction threshold again and again.
    std::size_t target = 0;
    for (int op = 0; op < 12000; ++op) {
      if (op % 1000 == 0) target = (op / 1000) % 2 == 0 ? 300 : 4;
      const std::size_t live = ref.items().size();
      const double r = rng.uniform();
      // A key that is live, or one that never was.
      const auto some_key = [&] {
        if (live == 0 || rng.bernoulli(0.15))
          return token_key(next_key + 1000000 + rng.uniform_index(50));
        return ref.items()[rng.uniform_index(live)].first;
      };
      const int value = static_cast<int>(rng.uniform_index(1u << 20));
      if (r < (live < target ? 0.6 : 0.15)) {
        const std::uint64_t key = token_key(next_key++);
        map.emplace(key, value);
        ref.emplace(key, value);
      } else if (r < 0.75) {
        const std::uint64_t key = some_key();
        const auto [found, got] = map.take(key);
        const auto [ref_found, want] = ref.take(key);
        ASSERT_EQ(found, ref_found);
        if (found) {
          EXPECT_EQ(got, want);
        }
      } else if (r < 0.82) {
        const std::uint64_t key = some_key();
        ASSERT_EQ(map.erase(key), ref.erase(key));
      } else if (r < 0.9) {
        // ChunkLedger::rekey: take, then re-insert under a fresh key at
        // the end of the order.
        const std::uint64_t key = some_key();
        auto [found, moved] = map.take(key);
        auto [ref_found, ref_moved] = ref.take(key);
        ASSERT_EQ(found, ref_found);
        if (found) {
          const std::uint64_t next = token_key(next_key++);
          map.emplace(next, moved);
          ref.emplace(next, ref_moved);
        }
      } else if (r < 0.92) {
        // ChunkLedger::fail_node: erase one "node's" items (value mod 64)
        // through the iterator mid-loop.
        const int node = static_cast<int>(rng.uniform_index(64));
        const auto doomed = [node](int v) { return v % 64 == node; };
        std::vector<std::pair<std::uint64_t, int>> surrendered;
        for (auto it = map.begin(); it != map.end();) {
          if (doomed(it->value)) {
            surrendered.emplace_back(it->key, it->value);
            it = map.erase(it);
          } else {
            ++it;
          }
        }
        EXPECT_EQ(surrendered, ref.erase_if([&](const auto& item) {
          return doomed(item.second);
        }));
      } else if (r < 0.995) {
        const std::uint64_t key = some_key();
        const int* want = ref.find(key);
        const int* got = map.find(key);
        ASSERT_EQ(got == nullptr, want == nullptr);
        if (got != nullptr) {
          EXPECT_EQ(*got, *want);
        }
        EXPECT_EQ(map.contains(key), want != nullptr);
      } else {
        map.clear();
        ref.clear();
      }
      if (live > 0 && ref.items().empty()) ++drains;
      peak = std::max(peak, ref.items().size());
      ASSERT_EQ(map.size(), ref.items().size()) << "seed " << seed << " op " << op;
      ASSERT_EQ(map.empty(), ref.items().empty());
      ASSERT_EQ(contents(map), ref.items()) << "seed " << seed << " op " << op;
    }
    EXPECT_GE(peak, 200u);  // the large phase really grew the map
    EXPECT_GE(drains, 5u);  // and the small phases really emptied it
  }
}

TEST(FlatMap, EraseThroughIteratorKeepsTheLoopAndOrder) {
  FlatMap<std::uint64_t, int> map;
  for (int i = 0; i < 100; ++i) map.emplace(token_key(i), i);
  // Drop every odd value mid-iteration, then the survivors keep their order.
  for (auto it = map.begin(); it != map.end();)
    it = it->value % 2 != 0 ? map.erase(it) : std::next(it);
  std::vector<int> values;
  for (const auto& [key, value] : map) values.push_back(value);
  ASSERT_EQ(values.size(), 50u);
  for (std::size_t i = 0; i < values.size(); ++i)
    EXPECT_EQ(values[i], static_cast<int>(2 * i));
  // Erasing everything through the iterator ends the loop at end().
  for (auto it = map.begin(); it != map.end();) it = map.erase(it);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.begin(), map.end());
  // The map stays usable: a moved-to-end key iterates last.
  map.emplace(1, 10);
  map.emplace(2, 20);
  auto [found, value] = map.take(1);
  ASSERT_TRUE(found);
  map.emplace(3, value);
  EXPECT_EQ(contents(map),
            (std::vector<std::pair<std::uint64_t, int>>{{2, 20}, {3, 10}}));
}

TEST(FlatMap, ConstIterationAndHeapValues) {
  FlatMap<NodeId, std::vector<int>> map;
  map.emplace(NodeId{7}, {1, 2});
  map.emplace(NodeId{3}, {3});
  const auto& view = map;
  FlatMap<NodeId, std::vector<int>>::const_iterator it = map.begin();
  EXPECT_EQ(it, view.begin());
  EXPECT_EQ(it->key, NodeId{7});
  ++it;
  EXPECT_EQ(it->value, std::vector<int>{3});
  EXPECT_EQ(++it, view.end());
  auto [found, moved] = map.take(NodeId{7});
  ASSERT_TRUE(found);
  EXPECT_EQ(moved, (std::vector<int>{1, 2}));
  EXPECT_EQ(map.take(NodeId{7}).first, false);
  EXPECT_EQ(map.size(), 1u);
}

/// A key whose equality comparisons are counted.
struct CountingKey {
  std::uint64_t value = 0;
  static inline std::size_t comparisons = 0;
  friend bool operator==(const CountingKey& a, const CountingKey& b) {
    ++comparisons;
    return a.value == b.value;
  }
};

}  // namespace
}  // namespace grasp

template <>
struct std::hash<grasp::CountingKey> {
  std::size_t operator()(const grasp::CountingKey& k) const noexcept {
    return std::hash<std::uint64_t>{}(k.value);
  }
};

namespace grasp {
namespace {

TEST(FlatMap, LookupsMakeConstantKeyComparisons) {
  constexpr std::uint64_t kLive = 4096;
  FlatMap<CountingKey, int> map;
  for (std::uint64_t i = 0; i < kLive; ++i)
    map.emplace(CountingKey{token_key(i)}, static_cast<int>(i));
  // A linear scan would compare against about half the live set.
  CountingKey::comparisons = 0;
  const auto [found, value] = map.take(CountingKey{token_key(kLive / 2)});
  ASSERT_TRUE(found);
  EXPECT_EQ(value, static_cast<int>(kLive / 2));
  EXPECT_LE(CountingKey::comparisons, 2u);

  CountingKey::comparisons = 0;
  EXPECT_NE(map.find(CountingKey{token_key(kLive - 1)}), nullptr);
  EXPECT_EQ(map.find(CountingKey{token_key(kLive / 2)}), nullptr);
  EXPECT_FALSE(map.contains(CountingKey{token_key(kLive + 7)}));
  EXPECT_LE(CountingKey::comparisons, 4u);

  // Rekey-style churn keeps it that way: every live key moves to the end.
  for (std::uint64_t i = 0; i < kLive; ++i) {
    auto [ok, v] = map.take(CountingKey{token_key(i)});
    if (ok) map.emplace(CountingKey{token_key(kLive + i)}, v);
  }
  CountingKey::comparisons = 0;
  EXPECT_TRUE(map.erase(CountingKey{token_key(kLive + kLive / 3)}));
  EXPECT_LE(CountingKey::comparisons, 2u);
  EXPECT_EQ(map.size(), kLive - 2);
}

}  // namespace
}  // namespace grasp
