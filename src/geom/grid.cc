#include "geom/grid.h"

#include <cmath>
#include <limits>

#include "common/logging.h"

namespace spacetwist::geom {

Grid::Grid(double cell_extent) : cell_extent_(cell_extent) {
  SPACETWIST_CHECK(cell_extent > 0.0) << "grid cell extent must be positive";
}

bool Grid::ForEachCellOverlapping(
    const Rect& r, const std::function<bool(const GridCell&)>& fn,
    int64_t max_cells) const {
  if (r.IsEmpty()) return true;
  const GridCell lo = CellOf(r.min);
  const GridCell hi = CellOf(r.max);
  const int64_t nx = hi.ix - lo.ix + 1;
  const int64_t ny = hi.iy - lo.iy + 1;
  if (nx <= 0 || ny <= 0) return true;
  if (nx > max_cells || ny > max_cells || nx * ny > max_cells) return false;
  for (int64_t iy = lo.iy; iy <= hi.iy; ++iy) {
    for (int64_t ix = lo.ix; ix <= hi.ix; ++ix) {
      if (!fn(GridCell{ix, iy})) return false;
    }
  }
  return true;
}

int64_t Grid::CountCellsOverlapping(const Rect& r) const {
  if (r.IsEmpty()) return 0;
  const GridCell lo = CellOf(r.min);
  const GridCell hi = CellOf(r.max);
  const int64_t nx = hi.ix - lo.ix + 1;
  const int64_t ny = hi.iy - lo.iy + 1;
  if (nx > 0 && ny > std::numeric_limits<int64_t>::max() / nx) {
    return std::numeric_limits<int64_t>::max();
  }
  return nx * ny;
}

}  // namespace spacetwist::geom
