#ifndef SPACETWIST_MEMIDX_MEM_CELL_FILTER_H_
#define SPACETWIST_MEMIDX_MEM_CELL_FILTER_H_

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <queue>
#include <vector>

#include "geom/grid.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "telemetry/registry.h"

namespace spacetwist::memidx {

/// Algorithm 2's grid-cell bookkeeping (the set V), re-plumbed for the
/// serving fast path. Semantically equivalent to server::CellFilter — the
/// differential suite pins the reported stream bit for bit against the
/// paged oracle — but engineered for the per-scanned-point hot loop:
///
///  * open-addressing probes over 40-byte slots that stay cache-resident
///    for a whole query, where server::CellFilter pays an unordered_map
///    find per check — and on a leaf scan one probe per overlapped cell,
///    after which a scanned point costs one compare against its own cell's
///    threshold (LeafScanPlan);
///  * frontier admission control: each cell records the k smallest
///    (distance, id) points pushed so far, letting AdmitToFrontier() drop,
///    at push time, any point that k better same-cell points already
///    dominate. A dominated point can never be reported — its k dominators
///    sit in the frontier with strictly smaller heap keys, pop first, and
///    fill the cell — so pruning shrinks the frontier from "every scanned
///    point in a non-full cell" to O(k) per cell without touching the
///    output sequence.
///
/// Cells come from Grid::CellOf, the oracle's own expression (a leaf-scan
/// plan compares against its exact float32 edges), and a cell's k-best
/// record grows with the points pushed into it, so the filter's memory
/// follows the cells and points a query touches, never 1/epsilon or k.
///
/// Relative to the oracle, heap_pops shrinks (that is the point) and the
/// eviction tail may lag (fewer pops means EvictUpTo sees fewer
/// intermediate frontiers; the evicted set still matches at every node
/// expansion because eviction is threshold-driven, not pop-count-driven).
/// Node expansions, admissions, and the reported stream are identical —
/// index_differential_test asserts exactly that split.
class MemCellFilter {
 public:
  /// Same contract as server::CellFilter: epsilon == 0 disables the filter
  /// (plain incremental NN); `visited` / `evicted` optionally mirror the
  /// per-stream totals into registry counters.
  MemCellFilter(const geom::Point& anchor, double epsilon, size_t k,
                bool lazy_eviction, telemetry::Counter* visited = nullptr,
                telemetry::Counter* evicted = nullptr);

  bool enabled() const { return grid_.has_value(); }

  /// Only meaningful when enabled(): the grid's lambda.
  double cell_extent() const { return grid_->cell_extent(); }

  /// Lazy eviction (Algorithm 2, Line 8): forgets every cell whose maxdist
  /// lies strictly below `frontier`. No-op unless enabled and lazy_eviction.
  /// Inline fast path — this runs once per heap pop, and almost always the
  /// eviction frontier has not moved past the queue head.
  void EvictUpTo(double frontier) {
    if (!lazy_eviction_ || eviction_queue_.empty() ||
        eviction_queue_.top().max_dist >= frontier) {
      return;
    }
    EvictUpToSlow(frontier);
  }

  /// A leaf overlaps only a handful of grid cells (lambda is of leaf
  /// order), so a whole-leaf scan can probe each overlapped cell once up
  /// front, give every point its plan cell in one classification pass, and
  /// then admit per point with one load and one compare. Plans wider than
  /// this fall back to per-point AdmitToFrontier().
  static constexpr int64_t kMaxLeafScanCells = 16;
  /// Marks a full cell in LeafScanPlan::slot: its points need no probe.
  static constexpr uint32_t kFullCell = 0xFFFFFFFFu;

  /// One leaf's scan plan. Valid for a single leaf expansion: only pops
  /// admit points or evict cells, and no pop happens mid-expansion, so a
  /// cell full when the plan is built stays full, and a non-full cell's
  /// threshold moves only with the pushes the scan itself makes into it.
  struct LeafScanPlan {
    int64_t c0x = 0;  ///< cell-range origin
    int64_t c0y = 0;
    int64_t nx = 0;  ///< range width in cells
    int64_t ny = 0;  ///< range height in cells
    bool skip_all = false;  ///< every overlapped cell is full
    /// Per plan cell, the largest dist_squared a scanned point may have and
    /// still need SlowPush's verdict: -inf for a full cell (nothing is
    /// pushed there), else the cell slot's quick-reject threshold, which
    /// PushScanPoint copies back after every push into the cell. So
    /// `dist_squared > reject[cell]` rejects exactly the points that
    /// AdmitToFrontier's two early outs (full cell, dominated) reject, and
    /// every other point reaches the same SlowPush on the same slot.
    std::array<double, kMaxLeafScanCells> reject = {};
    /// Slot index per plan cell (row-major, iy * nx + ix), or kFullCell.
    std::array<uint32_t, kMaxLeafScanCells> slot = {};
    /// Float thresholds of the plan's internal cell boundaries: bx[j] is
    /// the smallest float32 coordinate Grid::CellOf maps to column
    /// c0x + j + 1 or beyond (see BoundaryThreshold()), so a point's
    /// column is c0x + (count of bx[j] <= x) — compares replace the
    /// per-point IEEE divide, with an identical verdict.
    std::array<float, kMaxLeafScanCells - 1> bx = {};
    std::array<float, kMaxLeafScanCells - 1> by = {};
  };

  /// Builds the plan for a leaf whose points all lie inside `mbr`. Returns
  /// false when the fast path does not apply (filter disabled, or the leaf
  /// spans more than kMaxLeafScanCells cells) — the caller then probes per
  /// point. With skip_all set, every point of the leaf lands in a cell
  /// that already reported k points, so the whole scan can be skipped: the
  /// oracle would push those points and reject each at pop.
  bool BeginLeafScan(const geom::Rect& mbr, LeafScanPlan* plan);

  /// The classification pass: cells[i] receives the plan cell
  /// (iy * nx + ix) of point (xs[i], ys[i]), where ix counts the column
  /// thresholds bx[j] <= xs[i] and iy the row thresholds by[j] <= ys[i] —
  /// Grid::CellOf's cell for every point of the plan's leaf. Threshold
  /// outside, points inside: each inner loop is a branch-free
  /// compare-and-add over contiguous floats, which the compiler vectorizes.
  static void ClassifyLeafPoints(const LeafScanPlan& plan, const float* xs,
                                 const float* ys, size_t n, uint32_t* cells);

  /// Admission verdicts of PushScanPoint / AdmitToFrontier. Non-negative
  /// values are a FrontierHeap handle: the point dominates the cell's
  /// kth-best pushed point, whose heap entry it must replace (decrease-key)
  /// — the oracle pushes such points and rejects the displaced one at pop.
  static constexpr int64_t kRejectAction = -1;  ///< never reportable: drop
  static constexpr int64_t kFreshAction = -2;   ///< push, tracked by record
  static constexpr int64_t kUntrackedAction = -3;  ///< push, no record

  /// Decides a scanned point of plan cell `cell` (from ClassifyLeafPoints)
  /// that passed the scan's `dist_squared <= plan->reject[cell]` check:
  /// SlowPush on the cell's slot gives AdmitToFrontier's verdict and key,
  /// and the cell's plan threshold follows the slot's. `fresh_handle` is
  /// recorded iff the verdict is kFreshAction.
  int64_t PushScanPoint(LeafScanPlan* plan, uint32_t cell, double dist_squared,
                        uint32_t id, uint32_t fresh_handle, double* key) {
    Slot& s = slots_[plan->slot[cell]];
    const int64_t action = SlowPush(&s, dist_squared, id, fresh_handle, key);
    plan->reject[cell] = s.reject;
    return action;
  }

  /// Expansion-time admission, fused into one probe: a non-reject verdict
  /// means the point enters the frontier (see the action constants) and
  /// `*key` receives its heap key — sqrt(dist_squared), the exact key the
  /// paged oracle computes. kRejectAction comes back without ever taking
  /// the sqrt when the cell already reported k points, or when k
  /// already-pushed same-cell points dominate it under the frontier's
  /// (key, id) order.
  ///
  /// Inline: this runs once per scanned point (tens of thousands per
  /// query); a cross-TU call here is measurable.
  int64_t AdmitToFrontier(const geom::Point& p, double dist_squared,
                          uint32_t id, uint32_t fresh_handle, double* key) {
    if (!grid_.has_value()) {
      *key = std::sqrt(dist_squared);
      return kUntrackedAction;
    }
    Slot* s = FindOrCreate(grid_->CellOf(p));
    if (s->admitted >= k_) return kRejectAction;  // cell already reported k
    if (dist_squared > s->reject) return kRejectAction;  // dominated
    return SlowPush(s, dist_squared, id, fresh_handle, key);
  }

  /// Pop-time admission: charges the point to its cell and returns true if
  /// it must be reported. Identical semantics to CellFilter::AdmitPoint.
  bool AdmitPoint(const geom::Point& p);

  /// True when `mbr` is fully covered by cells that already reported k
  /// points (Algorithm 2, Line 9). Identical decisions to the oracle's —
  /// the short-circuit compares against the same live-admitted-cell count.
  bool CoveredByFullCells(const geom::Rect& mbr) const;

  /// Introspection, same meaning as CellFilter's: cells that have admitted
  /// at least one point and were not evicted.
  size_t live_cells() const { return live_cells_; }
  size_t peak_live_cells() const { return peak_live_cells_; }
  uint64_t cells_evicted() const { return cells_evicted_; }
  /// Heap bytes the slot table and the k-best pool have reserved.
  size_t reserved_bytes() const {
    return slots_.capacity() * sizeof(Slot) +
           kbest_pool_.capacity() * sizeof(PushedPoint);
  }

 private:
  /// 40-byte open-addressing slot. A slot exists for every cell ever
  /// probed at expansion time; `admitted > 0` marks the cells that the
  /// oracle's map would contain (coverage and eviction only ever look at
  /// those).
  struct Slot {
    geom::GridCell cell;
    /// Quick-reject bound: dist_squared above it has a key (sqrt) strictly
    /// greater than the cell's kth-best pushed key, so the point is
    /// dominated and can be dropped without taking the sqrt; at or below,
    /// SlowPush decides exactly. +inf until k points are pushed (see
    /// RejectThreshold()).
    double reject = 0.0;
    uint32_t state = 0;     ///< 0 empty, 1 occupied, 2 tombstone
    uint32_t admitted = 0;  ///< points reported from this cell, <= k
    uint32_t pushed = 0;    ///< entries in the k-best record, <= k
    /// Offset of this cell's record in kbest_pool_, allocated by the first
    /// push and moved by GrowRecord.
    uint32_t kbest = 0;
  };
  /// One entry of a cell's k-best record: the frontier's (key, id) order,
  /// plus the point's FrontierHeap handle — record shifts copy it along, so
  /// it always travels with its point.
  struct PushedPoint {
    double key = 0.0;
    uint32_t id = 0;
    uint32_t handle = 0;
  };
  struct EvictionEntry {
    double max_dist = 0.0;
    geom::GridCell cell;
  };
  struct EvictionGreater {
    bool operator()(const EvictionEntry& a, const EvictionEntry& b) const {
      return a.max_dist > b.max_dist;
    }
  };

  /// Linear-probe lookup/insert. The fast path (hit on an occupied slot)
  /// is inline; creation and table growth live in the .cc.
  Slot* FindOrCreate(const geom::GridCell& cell) {
    const size_t mask = slots_.size() - 1;
    size_t i = geom::GridCellHash()(cell) & mask;
    while (true) {
      Slot& s = slots_[i];
      if (s.state == 1) {
        if (s.cell == cell) return &s;
      } else if (s.state == 0) {
        return CreateSlot(cell);
      }
      i = (i + 1) & mask;
    }
  }
  const Slot* Find(const geom::GridCell& cell) const {
    const size_t mask = slots_.size() - 1;
    size_t i = geom::GridCellHash()(cell) & mask;
    while (true) {
      const Slot& s = slots_[i];
      if (s.state == 0) return nullptr;
      if (s.state == 1 && s.cell == cell) return &s;
      i = (i + 1) & mask;
    }
  }
  /// The exact-compare tail shared by AdmitToFrontier and PushScanPoint:
  /// takes the sqrt, applies the oracle's (key, id) dominance test against
  /// the cell's k-best record, inserts on success, and refreshes the
  /// sqrt-free reject threshold. When the insert displaces the record's
  /// kth entry, the displaced point is still in the heap (it cannot have
  /// popped — fewer than k cell pops so far, and record entries pop in
  /// record order), so the verdict hands its handle to the caller for an
  /// in-place Replace; the dominating point orders strictly earlier.
  int64_t SlowPush(Slot* s, double dist_squared, uint32_t id,
                   uint32_t fresh_handle, double* key) {
    const double d = std::sqrt(dist_squared);
    int64_t action = kFreshAction;
    uint32_t handle = fresh_handle;
    uint32_t at = s->pushed;
    if (at == k_) {
      const PushedPoint& kth = kbest_pool_[s->kbest + k_ - 1];
      if (d > kth.key || (d == kth.key && id > kth.id)) return kRejectAction;
      handle = kth.handle;  // reuse the displaced point's heap entry
      action = static_cast<int64_t>(handle);
      at = static_cast<uint32_t>(k_) - 1;
    } else {
      // Below k a record is full exactly when it holds 0 or a power of two
      // entries (see GrowRecord).
      if ((at & (at - 1)) == 0) GrowRecord(s);
      ++s->pushed;
    }
    PushedPoint* best = kbest_pool_.data() + s->kbest;
    while (at > 0 && (best[at - 1].key > d ||
                      (best[at - 1].key == d && best[at - 1].id > id))) {
      best[at] = best[at - 1];
      --at;
    }
    best[at] = PushedPoint{d, id, handle};
    if (s->pushed == k_) s->reject = RejectThreshold(best[k_ - 1].key);
    *key = d;
    return action;
  }

  /// Upper bound of the largest X with sqrt(X) <= key under IEEE
  /// round-to-nearest: any dist_squared above it has a key strictly greater
  /// and is dominated regardless of id, so quick-rejecting against it is
  /// sound. It is only a bound, not the exact edge — dist_squared in the
  /// few-ulp band between the exact threshold and this value survives the
  /// quick test and falls through to SlowPush's exact (key, id) compare, so
  /// the verdict stream is unchanged. Soundness of the slack: the exact
  /// threshold is at most ~3 ulps above key*key's rounded value, the 1e-15
  /// relative term adds >= 4.5 ulps even after its own rounding, and the
  /// 1e-300 absolute term covers the subnormal range where relative slack
  /// can round away. Runs on every cell-filling push (with k = 1, every
  /// push), which is why this is two multiplies and an add rather than the
  /// obvious sqrt-and-nextafter refinement loop.
  static double RejectThreshold(double key) {
    const double x = key * key;  // key = +inf stays +inf: never quick-reject
    return x + (x * 1e-15 + 1e-300);
  }

  /// Moves a full record below k to the pool's end with twice its capacity,
  /// capped at k; the first push allocates one entry. A record of n entries
  /// thus has capacity min(k, bit_ceil(n)), and since old records stay
  /// behind as garbage, the pool holds under 4 entries per pushed point.
  void GrowRecord(Slot* s);

  Slot* CreateSlot(const geom::GridCell& cell);
  /// Guarantees `n` CreateSlot calls without a Grow(), so slot indices
  /// handed out by BeginLeafScan stay valid for the whole leaf scan.
  void ReserveSlots(size_t n);
  void EraseAdmitted(const geom::GridCell& cell);
  void EvictUpToSlow(double frontier);
  void Grow();
  /// Smallest float32 coordinate that Grid::CellOf assigns to cell index
  /// >= `c` (both axes share the extent, so one function serves columns and
  /// rows).
  float BoundaryThreshold(int64_t c) const;

  geom::Point anchor_;
  size_t k_;
  bool lazy_eviction_;
  telemetry::Counter* visited_metric_;  ///< borrowed, may be null
  telemetry::Counter* evicted_metric_;  ///< borrowed, may be null

  std::optional<geom::Grid> grid_;  ///< engaged iff epsilon > 0
  std::vector<Slot> slots_;         ///< power-of-two open-addressing table
  size_t filled_ = 0;               ///< occupied + tombstoned slots
  /// The cells' k-best records, each allocated on its cell's first push
  /// (see GrowRecord).
  std::vector<PushedPoint> kbest_pool_;
  std::priority_queue<EvictionEntry, std::vector<EvictionEntry>,
                      EvictionGreater>
      eviction_queue_;

  size_t live_cells_ = 0;  ///< slots with admitted > 0 (== oracle map size)
  size_t peak_live_cells_ = 0;
  uint64_t cells_evicted_ = 0;
};

}  // namespace spacetwist::memidx

#endif  // SPACETWIST_MEMIDX_MEM_CELL_FILTER_H_
