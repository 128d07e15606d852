// The eviction pool of both memory simulators: an indexed binary heap over
// (key, vertex) pairs.
//
// Evictable values are ordered lexicographically by (policy key, vertex id),
// a strict total order:
//   Belady — key is the next use time; the victim is the largest entry.
//   LRU    — key is the last use time; the victim is the smallest entry.
// The order is total and every vertex appears at most once, so the top is
// unique whatever the heap's internal layout: a simulation is reproducible
// bit for bit. Each vertex's heap slot is tracked, so a value leaves in
// O(log size) when it is pinned as an operand or dies. Storage is two
// flat arrays; no insert allocates once the entry array has grown.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "graphio/graph/digraph.hpp"
#include "graphio/support/contracts.hpp"

namespace graphio::sim {

class EvictionHeap {
 public:
  /// An empty pool over vertex ids [0, num_vertices). `largest_first` puts
  /// the largest (key, vertex) on top (Belady), otherwise the smallest (LRU).
  EvictionHeap(std::size_t num_vertices, bool largest_first)
      : slot_(num_vertices, kAbsent), largest_first_(largest_first) {}

  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] bool contains(VertexId v) const {
    return slot_[static_cast<std::size_t>(v)] != kAbsent;
  }

  /// Inserts v, which must be absent, with `key`.
  void push(VertexId v, std::int64_t key) {
    GIO_ASSERT(!contains(v));
    entries_.emplace_back(key, v);
    sift_up(entries_.size() - 1);
  }

  /// Removes v, which must be present.
  void erase(VertexId v) {
    GIO_ASSERT(contains(v));
    remove_at(slot_[static_cast<std::size_t>(v)]);
  }

  /// Removes and returns the top vertex: the policy's victim.
  VertexId pop() {
    GIO_ASSERT(!empty());
    const VertexId top = entries_.front().second;
    remove_at(0);
    return top;
  }

 private:
  using Entry = std::pair<std::int64_t, VertexId>;  // (key, vertex)
  static constexpr std::size_t kAbsent =
      std::numeric_limits<std::size_t>::max();

  /// True if `a` belongs nearer the top than `b`.
  [[nodiscard]] bool outranks(const Entry& a, const Entry& b) const {
    return largest_first_ ? b < a : a < b;
  }

  void place(std::size_t i, const Entry& e) {
    entries_[i] = e;
    slot_[static_cast<std::size_t>(e.second)] = i;
  }

  void sift_up(std::size_t i) {
    const Entry e = entries_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!outranks(e, entries_[parent])) break;
      place(i, entries_[parent]);
      i = parent;
    }
    place(i, e);
  }

  void sift_down(std::size_t i) {
    const Entry e = entries_[i];
    const std::size_t size = entries_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= size) break;
      if (child + 1 < size && outranks(entries_[child + 1], entries_[child]))
        ++child;
      if (!outranks(entries_[child], e)) break;
      place(i, entries_[child]);
      i = child;
    }
    place(i, e);
  }

  void remove_at(std::size_t i) {
    slot_[static_cast<std::size_t>(entries_[i].second)] = kAbsent;
    const Entry last = entries_.back();
    entries_.pop_back();
    if (i == entries_.size()) return;
    // The former last entry fills the hole; it may belong above or below.
    entries_[i] = last;
    if (i > 0 && outranks(last, entries_[(i - 1) / 2]))
      sift_up(i);
    else
      sift_down(i);
  }

  std::vector<Entry> entries_;
  std::vector<std::size_t> slot_;  ///< index into entries_, or kAbsent
  bool largest_first_;
};

}  // namespace graphio::sim
