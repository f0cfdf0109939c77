// Flat associative containers for the hot paths.
//
// The engines key state by two kinds of identifiers: operation tokens
// (monotonically allocated; from a handful to thousands in flight at once —
// a 4096-worker hierarchy keeps one chunk per worker live) and node ids
// (small integers assigned contiguously by the grid builder).
//
//   * FlatMap<K, V>  — insertion-ordered table of (key, value) items with a
//     key index.  find / take / erase / emplace cost O(1) expected at any
//     live-set size.  Iteration visits the live items in insertion order,
//     and erasing (by key or through an iterator) keeps the survivors'
//     order, so iteration is deterministic — a property the resilience
//     layer relies on for reproducible re-dispatch order.
//   * NodeMap<V>     — direct-indexed vector keyed by NodeId, auto-growing,
//     with a default value for untouched nodes.  O(1) access, no hashing;
//     relies on grid node ids being small and dense (they are: the grid
//     builder numbers nodes contiguously from zero).
//
// FlatMap layout.  Items live in one vector of slots in insertion order;
// erasing an item empties its slot (a tombstone) instead of shifting the
// tail, so erase(iterator) stays valid in the middle of an iteration and
// re-inserting a key moves it to the end, as ChunkLedger::rekey expects.
// The key index is an open-addressing table of (slot position, 32-bit
// hash) pairs, linear probing, load factor at most 1/2, backward-shift
// deletion (no index tombstones).  A probe compares the stored hash before
// touching the slot, so a lookup makes about one key comparison.  Neither
// structure allocates per insert: both are vectors that grow by doubling.
// Tombstones are compacted away on insert once they outnumber the live
// items, so the slot vector stays within twice the live set of the last
// insert (plus a small floor), and so does the cost of an iteration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/ids.hpp"

namespace grasp {

template <typename Key, typename Value>
class FlatMap {
 public:
  struct Item {
    Key key;
    Value value;
  };

 private:
  using Slot = std::optional<Item>;  ///< empty == tombstone

 public:
  /// Forward iterator over the live items in insertion order.
  template <bool Const>
  class Iter {
    using SlotPtr = std::conditional_t<Const, const Slot*, Slot*>;

   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Item;
    using difference_type = std::ptrdiff_t;
    using pointer = std::conditional_t<Const, const Item*, Item*>;
    using reference = std::conditional_t<Const, const Item&, Item&>;

    Iter() = default;
    /// iterator -> const_iterator.
    template <bool C = Const, typename = std::enable_if_t<C>>
    Iter(const Iter<false>& other)  // NOLINT(google-explicit-constructor)
        : cur_(other.cur_), end_(other.end_) {}

    reference operator*() const { return **cur_; }
    pointer operator->() const { return &**cur_; }
    Iter& operator++() {
      ++cur_;
      skip();
      return *this;
    }
    Iter operator++(int) {
      Iter before = *this;
      ++*this;
      return before;
    }
    friend bool operator==(const Iter& a, const Iter& b) {
      return a.cur_ == b.cur_;
    }

   private:
    friend class FlatMap;
    template <bool>
    friend class Iter;
    Iter(SlotPtr cur, SlotPtr end) : cur_(cur), end_(end) { skip(); }
    void skip() {
      while (cur_ != end_ && !cur_->has_value()) ++cur_;
    }

    SlotPtr cur_ = nullptr;
    SlotPtr end_ = nullptr;
  };
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  [[nodiscard]] Value* find(const Key& key) {
    const std::size_t b = bucket_of(key);
    return b == kNone ? nullptr : &slots_[index_[b].pos]->value;
  }
  [[nodiscard]] const Value* find(const Key& key) const {
    const std::size_t b = bucket_of(key);
    return b == kNone ? nullptr : &slots_[index_[b].pos]->value;
  }
  [[nodiscard]] bool contains(const Key& key) const {
    return bucket_of(key) != kNone;
  }

  /// Insert a new mapping at the end of the iteration order.  The key must
  /// not be present.  Invalidates iterators and pointers into the map.
  Value& emplace(const Key& key, Value value) {
    if (dead_ > live_ && dead_ >= kCompactFloor) compact();
    if (2 * (live_ + 1) > index_.size()) rebuild_index(2 * (live_ + 1));
    if (slots_.size() >= kEmpty)
      throw std::length_error("FlatMap: more than 2^32 - 1 slots");
    const std::uint32_t h = hash_of(key);
    const auto pos = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back(Item{key, std::move(value)});
    index_insert(h, pos);
    ++live_;
    return slots_.back()->value;
  }

  /// Remove the item at `pos`, preserving the insertion order of the
  /// survivors; returns the iterator to the next item.  Other iterators
  /// stay valid.
  iterator erase(iterator pos) {
    const auto slot = static_cast<std::size_t>(pos.cur_ - slots_.data());
    index_erase(bucket_of_slot(slot));
    kill(slot);
    return iterator(pos.cur_ + 1, pos.end_);
  }

  /// Remove `key`, preserving the insertion order of the survivors.
  /// Returns true when the key was present.
  bool erase(const Key& key) {
    const std::size_t b = bucket_of(key);
    if (b == kNone) return false;
    const std::size_t slot = index_[b].pos;
    index_erase(b);
    kill(slot);
    return true;
  }

  /// Remove `key` and return its value.
  std::pair<bool, Value> take(const Key& key) {
    const std::size_t b = bucket_of(key);
    if (b == kNone) return {false, Value{}};
    const std::size_t slot = index_[b].pos;
    Value value = std::move(slots_[slot]->value);
    index_erase(b);
    kill(slot);
    return {true, std::move(value)};
  }

  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }
  void clear() {
    slots_.clear();
    for (Bucket& bucket : index_) bucket.pos = kEmpty;
    live_ = dead_ = head_ = 0;
  }

  [[nodiscard]] iterator begin() {
    return iterator(slots_.data() + head_, slots_.data() + slots_.size());
  }
  [[nodiscard]] iterator end() {
    Slot* const last = slots_.data() + slots_.size();
    return iterator(last, last);
  }
  [[nodiscard]] const_iterator begin() const {
    return const_iterator(slots_.data() + head_,
                          slots_.data() + slots_.size());
  }
  [[nodiscard]] const_iterator end() const {
    const Slot* const last = slots_.data() + slots_.size();
    return const_iterator(last, last);
  }

 private:
  struct Bucket {
    std::uint32_t pos;   ///< slot position, kEmpty when free
    std::uint32_t hash;  ///< hash_of(key), compared before the key
  };
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  static constexpr std::size_t kNone = ~std::size_t{0};
  /// Tombstones tolerated before compaction is worth its pass.
  static constexpr std::size_t kCompactFloor = 16;

  /// Fibonacci hashing: the top 32 bits of the key hash times 2^64/phi.
  /// Spreads sequential and bit-packed keys (operation tokens) evenly; the
  /// bucket is the top bits of this value.
  static std::uint32_t hash_of(const Key& key) {
    const auto h = static_cast<std::uint64_t>(std::hash<Key>{}(key));
    return static_cast<std::uint32_t>((h * 0x9E3779B97F4A7C15ull) >> 32);
  }
  [[nodiscard]] std::size_t home(std::uint32_t h) const {
    return static_cast<std::size_t>(h >> shift_);
  }
  [[nodiscard]] std::size_t mask() const { return index_.size() - 1; }

  /// Index bucket holding `key`, or kNone.
  [[nodiscard]] std::size_t bucket_of(const Key& key) const {
    if (live_ == 0) return kNone;
    const std::uint32_t h = hash_of(key);
    for (std::size_t b = home(h);; b = (b + 1) & mask()) {
      const Bucket& bucket = index_[b];
      if (bucket.pos == kEmpty) return kNone;
      if (bucket.hash == h && slots_[bucket.pos]->key == key) return b;
    }
  }
  /// Index bucket pointing at live slot `slot` (no key comparison).
  [[nodiscard]] std::size_t bucket_of_slot(std::size_t slot) const {
    const std::size_t b0 = home(hash_of(slots_[slot]->key));
    for (std::size_t b = b0;; b = (b + 1) & mask())
      if (index_[b].pos == slot) return b;
  }

  void index_insert(std::uint32_t h, std::uint32_t pos) {
    std::size_t b = home(h);
    while (index_[b].pos != kEmpty) b = (b + 1) & mask();
    index_[b] = Bucket{pos, h};
  }
  /// Backward-shift deletion: pull each later entry of the probe run into
  /// the hole unless that would move it before its home bucket.
  void index_erase(std::size_t hole) {
    for (std::size_t j = (hole + 1) & mask(); index_[j].pos != kEmpty;
         j = (j + 1) & mask()) {
      const std::size_t from_home = (j - home(index_[j].hash)) & mask();
      if (from_home >= ((j - hole) & mask())) {
        index_[hole] = index_[j];
        hole = j;
      }
    }
    index_[hole].pos = kEmpty;
  }

  /// Tombstone a slot whose index entry is already gone.
  void kill(std::size_t slot) {
    slots_[slot].reset();
    --live_;
    ++dead_;
    if (slot == head_)
      while (head_ < slots_.size() && !slots_[head_]) ++head_;
  }

  /// Squeeze the tombstones out (order kept) and re-index the positions.
  /// The index is re-sized to the live set, so a map that drained after a
  /// peak stops paying the peak's index size on every compaction.
  void compact() {
    std::size_t out = 0;
    for (std::size_t i = head_; i < slots_.size(); ++i) {
      if (!slots_[i]) continue;
      if (i != out) slots_[out] = std::move(slots_[i]);
      ++out;
    }
    slots_.resize(out);
    dead_ = head_ = 0;
    rebuild_index(2 * (live_ + 1));
  }

  /// Size the index for `min_buckets` (a power of two, at least 16) and
  /// re-insert every live slot.
  void rebuild_index(std::size_t min_buckets) {
    std::size_t buckets = 16;
    unsigned bits = 4;
    while (buckets < min_buckets) {
      buckets *= 2;
      ++bits;
    }
    index_.assign(buckets, Bucket{kEmpty, 0});
    shift_ = 32 - bits;
    for (std::size_t i = head_; i < slots_.size(); ++i)
      if (slots_[i])
        index_insert(hash_of(slots_[i]->key), static_cast<std::uint32_t>(i));
  }

  std::vector<Slot> slots_;     ///< insertion order, tombstones included
  std::vector<Bucket> index_;   ///< key -> slot, power-of-two size
  unsigned shift_ = 0;          ///< 32 - log2(index_.size()), once built
  std::size_t live_ = 0;
  std::size_t dead_ = 0;        ///< tombstones in slots_
  std::size_t head_ = 0;        ///< no live slot before this position
};

template <typename Value>
class NodeMap {
 public:
  NodeMap() = default;
  /// A custom default requires a copyable Value (untouched slots are filled
  /// with copies); move-only Values use the value-initialized default.
  explicit NodeMap(Value default_value) : default_(std::move(default_value)) {
    static_assert(std::is_copy_constructible_v<Value>,
                  "NodeMap: custom default needs a copyable Value");
  }

  /// Mutable access; grows the table to cover `node`.
  Value& operator[](NodeId node) {
    const std::size_t index = check(node);
    if (index >= values_.size()) {
      if constexpr (std::is_copy_constructible_v<Value>) {
        values_.resize(index + 1, default_);
      } else {
        values_.resize(index + 1);  // value-init == default_ (see ctor)
      }
    }
    return values_[index];
  }

  /// Read-only access; untouched nodes — and ids outside the dense range,
  /// including the invalid sentinel — read as the default value.
  [[nodiscard]] const Value& at_or_default(NodeId node) const {
    if (!node.is_valid() || node.value >= kMaxDirectIndex) return default_;
    const auto index = static_cast<std::size_t>(node.value);
    return index < values_.size() ? values_[index] : default_;
  }

  /// Dense slot storage, index == node id (for full-table scans).
  [[nodiscard]] const std::vector<Value>& values() const { return values_; }

  void clear() { values_.clear(); }

 private:
  /// Grid node ids are dense small integers; the ceiling only guards
  /// against an invalid/sentinel id blowing up the table.
  static constexpr std::size_t kMaxDirectIndex = 1u << 22;

  static std::size_t check(NodeId node) {
    if (!node.is_valid() || node.value >= kMaxDirectIndex)
      throw std::out_of_range("NodeMap: node id outside dense range");
    return static_cast<std::size_t>(node.value);
  }

  std::vector<Value> values_;
  Value default_{};
};

}  // namespace grasp
