#ifndef SPACETWIST_SERVER_CELL_FILTER_H_
#define SPACETWIST_SERVER_CELL_FILTER_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "geom/grid.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "serving/inn_backend.h"
#include "telemetry/registry.h"

namespace spacetwist::server {

/// Algorithm 2's grid-cell bookkeeping (the set V), shared by the paged
/// GranularInnStream (the differential oracle) and the shard router's
/// scatter-gather merge, which must evolve it identically. The serving
/// kernel (memidx::FrontierInnStream, on pages and on the arena) carries a
/// semantically equivalent fast implementation (memidx/mem_cell_filter.h)
/// whose stream equality the differential suite pins against this one;
/// behavioral changes here must be mirrored there.
///
/// With epsilon == 0 the filter is disabled: every point is admitted and no
/// entry is ever covered (plain incremental NN).
///
/// Header-only on purpose — keep it free of st_server-only dependencies.
class CellFilter {
 public:
  /// `visited` / `evicted` are optional registry counters mirroring the
  /// per-stream totals (null = not mirrored).
  CellFilter(const geom::Point& anchor, double epsilon, size_t k,
             bool lazy_eviction, telemetry::Counter* visited = nullptr,
             telemetry::Counter* evicted = nullptr)
      : anchor_(anchor), k_(k), lazy_eviction_(lazy_eviction),
        visited_metric_(visited), evicted_metric_(evicted) {
    if (epsilon > 0.0) {
      // Lemma 2: cell extent lambda = epsilon / sqrt(2) guarantees the
      // epsilon-relaxed result.
      grid_.emplace(epsilon / std::sqrt(2.0));
    }
  }

  bool enabled() const { return grid_.has_value(); }

  /// Lazy eviction (Algorithm 2, Line 8): any entry discovered later has
  /// mindist >= `frontier`, so a cell whose maxdist is below the frontier
  /// cannot intersect future entries and can be forgotten without affecting
  /// pruning decisions. No-op unless enabled and lazy_eviction.
  void EvictUpTo(double frontier) {
    if (!grid_.has_value() || !lazy_eviction_) return;
    while (!eviction_queue_.empty() &&
           eviction_queue_.top().max_dist < frontier) {
      const geom::GridCell cell = eviction_queue_.top().cell;
      eviction_queue_.pop();
      if (cells_.erase(cell) > 0) {
        ++cells_evicted_;
        if (evicted_metric_ != nullptr) evicted_metric_->Add();
      }
    }
  }

  /// Expansion-time pre-check: true when the point's cell has already
  /// reported k points (the point need not enter the frontier). Read-only —
  /// never creates a cell.
  bool CellIsFull(const geom::Point& p) const {
    if (!grid_.has_value()) return false;
    auto it = cells_.find(grid_->CellOf(p));
    return it != cells_.end() && it->second >= k_;
  }

  /// Pop-time admission: charges the point to its cell and returns true if
  /// it must be reported, false if the cell was already full.
  bool AdmitPoint(const geom::Point& p) {
    if (!grid_.has_value()) return true;
    const geom::GridCell cell = grid_->CellOf(p);
    auto [it, inserted] = cells_.try_emplace(cell, 0);
    if (it->second >= k_) return false;  // cell already reported k points
    if (inserted) {
      if (visited_metric_ != nullptr) visited_metric_->Add();
      eviction_queue_.push(
          EvictionEntry{geom::MaxDist(anchor_, grid_->CellRect(cell)), cell});
    }
    ++it->second;
    peak_live_cells_ = std::max(peak_live_cells_, cells_.size());
    return true;
  }

  /// True when `mbr` is fully covered by the union of cells that have
  /// already reported k points (Algorithm 2, Line 9).
  bool CoveredByFullCells(const geom::Rect& mbr) const {
    if (!grid_.has_value() || cells_.empty()) return false;
    // Cheap short-circuit: the union of |cells_| cells cannot cover a
    // rectangle that overlaps more cells than that.
    if (grid_->CountCellsOverlapping(mbr) >
        static_cast<int64_t>(cells_.size())) {
      return false;
    }
    return grid_->ForEachCellOverlapping(
        mbr,
        [this](const geom::GridCell& cell) {
          auto it = cells_.find(cell);
          return it != cells_.end() && it->second >= k_;
        },
        serving::kMaxCoverageCells);
  }

  /// Introspection for tests and the memory-optimization ablation.
  size_t live_cells() const { return cells_.size(); }
  size_t peak_live_cells() const { return peak_live_cells_; }
  uint64_t cells_evicted() const { return cells_evicted_; }

 private:
  struct EvictionEntry {
    double max_dist = 0.0;
    geom::GridCell cell;
  };
  struct EvictionGreater {
    bool operator()(const EvictionEntry& a, const EvictionEntry& b) const {
      return a.max_dist > b.max_dist;
    }
  };

  geom::Point anchor_;
  size_t k_;
  bool lazy_eviction_;
  telemetry::Counter* visited_metric_;  ///< borrowed, may be null
  telemetry::Counter* evicted_metric_;  ///< borrowed, may be null

  std::optional<geom::Grid> grid_;  ///< engaged iff epsilon > 0
  /// V of Algorithm 2: cell -> number of points reported from it.
  std::unordered_map<geom::GridCell, size_t, geom::GridCellHash> cells_;
  /// Lazy-eviction queue ordered by maxdist(anchor, cell).
  std::priority_queue<EvictionEntry, std::vector<EvictionEntry>,
                      EvictionGreater>
      eviction_queue_;

  size_t peak_live_cells_ = 0;
  uint64_t cells_evicted_ = 0;
};

}  // namespace spacetwist::server

#endif  // SPACETWIST_SERVER_CELL_FILTER_H_
