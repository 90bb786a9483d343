#ifndef SPACETWIST_GEOM_GRID_H_
#define SPACETWIST_GEOM_GRID_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"

namespace spacetwist::geom {

/// Integer coordinates of a grid cell.
struct GridCell {
  int64_t ix = 0;
  int64_t iy = 0;

  friend bool operator==(const GridCell& a, const GridCell& b) {
    return a.ix == b.ix && a.iy == b.iy;
  }
};

/// Hash functor so GridCell can key unordered containers.
struct GridCellHash {
  size_t operator()(const GridCell& c) const {
    // 64-bit mix of the two coordinates (splitmix-style).
    uint64_t h = static_cast<uint64_t>(c.ix) * 0x9E3779B97F4A7C15ULL;
    h ^= static_cast<uint64_t>(c.iy) + 0x9E3779B97F4A7C15ULL + (h << 6) +
         (h >> 2);
    return static_cast<size_t>(h);
  }
};

/// The conceptual regular grid of the granular search (Section IV): cells of
/// extent `cell_extent` anchored at the domain origin. The grid is unbounded;
/// callers clamp to their domain as needed.
class Grid {
 public:
  /// `cell_extent` is the paper's lambda = epsilon / sqrt(2); must be > 0.
  explicit Grid(double cell_extent);

  double cell_extent() const { return cell_extent_; }

  /// Cell containing `p` (cells are half-open: [i*ext, (i+1)*ext)).
  /// Inline: the granular streams call this once per scanned point.
  GridCell CellOf(const Point& p) const {
    return GridCell{static_cast<int64_t>(std::floor(p.x / cell_extent_)),
                    static_cast<int64_t>(std::floor(p.y / cell_extent_))};
  }

  /// The rectangle covered by `cell`.
  Rect CellRect(const GridCell& cell) const {
    const double x0 = static_cast<double>(cell.ix) * cell_extent_;
    const double y0 = static_cast<double>(cell.iy) * cell_extent_;
    return Rect{{x0, y0}, {x0 + cell_extent_, y0 + cell_extent_}};
  }

  /// Invokes `fn` for every cell whose rectangle intersects `r`, row by row.
  /// Returns false (and stops early) the first time `fn` returns false;
  /// true otherwise. Visits at most `max_cells` cells; if `r` spans more,
  /// returns false without visiting the remainder (callers use this as a
  /// conservative "cannot decide" escape hatch).
  bool ForEachCellOverlapping(const Rect& r,
                              const std::function<bool(const GridCell&)>& fn,
                              int64_t max_cells = 1 << 20) const;

  /// Number of cells overlapping `r`, saturating at INT64_MAX (a tiny
  /// extent can make a rectangle span more cells than int64 counts).
  int64_t CountCellsOverlapping(const Rect& r) const;

 private:
  double cell_extent_;
};

}  // namespace spacetwist::geom

#endif  // SPACETWIST_GEOM_GRID_H_
