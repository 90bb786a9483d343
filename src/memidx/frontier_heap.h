#ifndef SPACETWIST_MEMIDX_FRONTIER_HEAP_H_
#define SPACETWIST_MEMIDX_FRONTIER_HEAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace spacetwist::memidx {

/// Compact 32-byte frontier entry of the granular serving kernel. For
/// points, (x, y) is the float32-quantized location and `id` the point id;
/// for nodes, `id` is the node id — arena slot or page id, which coincide
/// for isomorphic trees — and (x, y, max_x, max_y) the node's MBR as
/// recorded by its parent
/// — the leaf scan plan needs it at pop time. max_x < x marks an unknown
/// MBR (the root has no parent record). `handle` addresses the entry in
/// the FrontierHeap's handle table (see below); the two top sentinel
/// values mark node entries and untracked points.
struct FrontierEntry {
  /// Sentinel handle: the entry is an R-tree node, not a point.
  static constexpr uint32_t kNodeEntry = 0xFFFFFFFFu;
  /// Sentinel handle: a point with no cell record behind it (the filter is
  /// disabled); it can never be replaced, so it needs no position tracking.
  static constexpr uint32_t kUntracked = 0xFFFFFFFEu;

  double key = 0.0;
  float x = 0.0f;
  float y = 0.0f;
  float max_x = -1.0f;
  float max_y = 0.0f;
  uint32_t id = 0;
  uint32_t handle = kUntracked;

  bool is_node() const { return handle == kNodeEntry; }
};

/// Addressable 4-ary min-heap over FrontierEntry. Tracked point entries
/// (handle below the sentinels) keep their current heap position in a side
/// table, so MemCellFilter can replace a pushed point the moment a better
/// same-cell point dominates it — a decrease-key in place of the oracle's
/// push-now-reject-at-pop pattern. The heap therefore holds at most k live
/// points per cell plus the node frontier, and pop traffic shrinks to
/// reported points + node expansions.
///
/// Pop order over any fixed entry set matches std::priority_queue with the
/// paged HeapItem comparator: Before() is the same total order (ascending
/// key, points before nodes, ascending id), and a total order leaves the
/// heap implementation no freedom.
class FrontierHeap {
 public:
  bool empty() const { return v_.empty(); }
  size_t size() const { return v_.size(); }
  const FrontierEntry& top() const { return v_.front(); }

  /// Handle the next tracked Push() will occupy. Callers pass it to the
  /// filter before knowing the admission verdict; it is only consumed when
  /// the verdict is a fresh tracked push.
  uint32_t next_handle() const { return static_cast<uint32_t>(pos_.size()); }

  /// `e.handle` must be kNodeEntry, kUntracked, or exactly next_handle().
  void Push(const FrontierEntry& e) {
    if (e.handle < kHandleLimit) pos_.push_back(0);  // set by Place below
    v_.push_back(e);
    SiftUp(v_.size() - 1, e);
  }

  /// Overwrites the live entry addressed by `handle` with `e` (which must
  /// carry the same handle and order no later than the entry it replaces —
  /// frontier dominance guarantees strictly earlier) and restores the heap
  /// property; the displaced point simply ceases to exist.
  void Replace(uint32_t handle, const FrontierEntry& e) {
    SiftUp(pos_[handle], e);
  }

  /// Removes top(). A popped entry's pos_ slot goes stale, which is fine:
  /// a popped point is never replaced (its cell either reported it or the
  /// record it lived in died with an evicted cell).
  void Pop() {
    const FrontierEntry last = v_.back();
    v_.pop_back();
    if (!v_.empty()) SiftDown(last);
  }

 private:
  static constexpr uint32_t kHandleLimit = 0xFFFFFFFEu;

  /// True when `a` pops strictly before `b`: ascending key, points before
  /// nodes, ascending id — the paged GranularInnStream::HeapItem order.
  static bool Before(const FrontierEntry& a, const FrontierEntry& b) {
    if (a.key != b.key) return a.key < b.key;
    const bool a_node = a.is_node();
    const bool b_node = b.is_node();
    if (a_node != b_node) return b_node;
    return a.id < b.id;
  }

  void Place(const FrontierEntry& e, size_t i) {
    v_[i] = e;
    if (e.handle < kHandleLimit) pos_[e.handle] = i;
  }

  /// 4 children per node: half the levels of a binary heap, and the four
  /// 32-byte siblings span two adjacent cache lines, so the extra compares
  /// per level are mostly free. Pop order is unaffected — Before() is a
  /// total order, so any correct heap shape yields the same sequence.
  static constexpr size_t kArity = 4;

  void SiftUp(size_t i, const FrontierEntry& e) {
    while (i > 0) {
      const size_t parent = (i - 1) / kArity;
      if (!Before(e, v_[parent])) break;
      Place(v_[parent], i);
      i = parent;
    }
    Place(e, i);
  }

  void SiftDown(const FrontierEntry& e) {
    const size_t n = v_.size();
    size_t i = 0;
    while (true) {
      const size_t first = kArity * i + 1;
      if (first >= n) break;
      const size_t last = first + kArity < n ? first + kArity : n;
      size_t c = first;
      for (size_t j = first + 1; j < last; ++j) {
        if (Before(v_[j], v_[c])) c = j;
      }
      if (!Before(v_[c], e)) break;
      Place(v_[c], i);
      i = c;
    }
    Place(e, i);
  }

  std::vector<FrontierEntry> v_;
  std::vector<uint32_t> pos_;  ///< handle -> current index in v_
};

}  // namespace spacetwist::memidx

#endif  // SPACETWIST_MEMIDX_FRONTIER_HEAP_H_
