#include "memidx/mem_cell_filter.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "serving/inn_backend.h"

namespace spacetwist::memidx {
namespace {

/// Initial table capacity: 1024 slots (40 KiB) comfortably holds every cell
/// a Table I-scale query touches without rehashing.
constexpr size_t kInitialSlots = 1024;

}  // namespace

MemCellFilter::MemCellFilter(const geom::Point& anchor, double epsilon,
                             size_t k, bool lazy_eviction,
                             telemetry::Counter* visited,
                             telemetry::Counter* evicted)
    : anchor_(anchor), k_(k), lazy_eviction_(lazy_eviction),
      visited_metric_(visited), evicted_metric_(evicted) {
  if (epsilon > 0.0) {
    // Lemma 2: cell extent lambda = epsilon / sqrt(2) guarantees the
    // epsilon-relaxed result. Same expression as the oracle so CellOf
    // assigns identical cells.
    grid_.emplace(epsilon / std::sqrt(2.0));
    slots_.resize(kInitialSlots);
    // A query pushes into a few hundred cells; one up-front block spares
    // GrowRecord the vector's reallocation ladder.
    kbest_pool_.reserve(kInitialSlots * std::min<size_t>(k_, 4));
  }
}

MemCellFilter::Slot* MemCellFilter::CreateSlot(const geom::GridCell& cell) {
  // Grow on 3/4 fill (counting tombstones) to bound probe lengths; the
  // inline probe loops rely on at least a quarter of the slots being empty.
  if (filled_ * 4 >= slots_.size() * 3) Grow();
  const size_t mask = slots_.size() - 1;
  size_t i = geom::GridCellHash()(cell) & mask;
  size_t insert_at = slots_.size();  // first tombstone seen, if any
  while (true) {
    Slot& s = slots_[i];
    if (s.state == 2) {
      if (insert_at == slots_.size()) insert_at = i;
    } else if (s.state == 0) {
      if (insert_at == slots_.size()) {
        insert_at = i;
        ++filled_;  // consuming a never-used slot raises the fill
      }
      Slot& slot = slots_[insert_at];
      slot.cell = cell;
      slot.reject = std::numeric_limits<double>::infinity();
      slot.state = 1;
      slot.admitted = 0;
      slot.pushed = 0;
      return &slot;
    }
    i = (i + 1) & mask;
  }
}

void MemCellFilter::GrowRecord(Slot* s) {
  const size_t capacity =
      std::min<size_t>(k_, std::max<size_t>(1, size_t{2} * s->pushed));
  const size_t at = kbest_pool_.size();
  kbest_pool_.resize(at + capacity);
  std::copy_n(kbest_pool_.begin() + s->kbest, s->pushed,
              kbest_pool_.begin() + static_cast<ptrdiff_t>(at));
  s->kbest = static_cast<uint32_t>(at);
}

void MemCellFilter::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot());
  filled_ = 0;
  const size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.state != 1) continue;
    size_t i = geom::GridCellHash()(s.cell) & mask;
    while (slots_[i].state != 0) i = (i + 1) & mask;
    slots_[i] = s;
    ++filled_;
  }
}

void MemCellFilter::ReserveSlots(size_t n) {
  // CreateSlot grows at 3/4 fill; pre-growing when `n` creations could
  // cross that line keeps every slot index stable in between.
  if ((filled_ + n) * 4 >= slots_.size() * 3) Grow();
}

bool MemCellFilter::BeginLeafScan(const geom::Rect& mbr, LeafScanPlan* plan) {
  if (!grid_.has_value()) return false;
  const geom::GridCell lo = grid_->CellOf(mbr.min);
  const geom::GridCell hi = grid_->CellOf(mbr.max);
  const int64_t nx = hi.ix - lo.ix + 1;
  const int64_t ny = hi.iy - lo.iy + 1;
  if (nx <= 0 || ny <= 0 || nx > kMaxLeafScanCells ||
      ny > kMaxLeafScanCells || nx * ny > kMaxLeafScanCells) {
    return false;
  }
  ReserveSlots(static_cast<size_t>(nx * ny));
  plan->c0x = lo.ix;
  plan->c0y = lo.iy;
  plan->nx = nx;
  plan->ny = ny;
  for (int64_t j = 1; j < nx; ++j) {
    plan->bx[static_cast<size_t>(j - 1)] = BoundaryThreshold(lo.ix + j);
  }
  for (int64_t j = 1; j < ny; ++j) {
    plan->by[static_cast<size_t>(j - 1)] = BoundaryThreshold(lo.iy + j);
  }
  plan->skip_all = true;
  for (int64_t iy = 0; iy < ny; ++iy) {
    for (int64_t ix = 0; ix < nx; ++ix) {
      Slot* s = FindOrCreate(geom::GridCell{lo.ix + ix, lo.iy + iy});
      const size_t idx = static_cast<size_t>(iy * nx + ix);
      if (s->admitted >= k_) {
        plan->slot[idx] = kFullCell;
        plan->reject[idx] = -std::numeric_limits<double>::infinity();
      } else {
        plan->slot[idx] = static_cast<uint32_t>(s - slots_.data());
        plan->reject[idx] = s->reject;
        plan->skip_all = false;
      }
    }
  }
  return true;
}

void MemCellFilter::ClassifyLeafPoints(const LeafScanPlan& plan,
                                       const float* xs, const float* ys,
                                       size_t n, uint32_t* cells) {
  for (size_t i = 0; i < n; ++i) cells[i] = 0;
  for (int64_t j = 0; j + 1 < plan.nx; ++j) {
    const float t = plan.bx[static_cast<size_t>(j)];
    for (size_t i = 0; i < n; ++i) cells[i] += xs[i] >= t ? 1u : 0u;
  }
  const auto row = static_cast<uint32_t>(plan.nx);
  for (int64_t j = 0; j + 1 < plan.ny; ++j) {
    const float t = plan.by[static_cast<size_t>(j)];
    for (size_t i = 0; i < n; ++i) cells[i] += ys[i] >= t ? row : 0u;
  }
}

float MemCellFilter::BoundaryThreshold(int64_t c) const {
  // nextafter refinement around float(c * extent): descend below the
  // boundary, then ascend to the first float32 on or past it. Soundness
  // needs only that Grid::CellOf is monotone in x; the starting guess is
  // within a few ulps, so each loop runs O(1) steps.
  const auto cell_of = [this](float x) {
    return grid_->CellOf(geom::Point{x, 0.0}).ix;
  };
  float t = static_cast<float>(static_cast<double>(c) * grid_->cell_extent());
  while (cell_of(t) >= c) {
    t = std::nextafterf(t, -std::numeric_limits<float>::infinity());
  }
  do {
    t = std::nextafterf(t, std::numeric_limits<float>::infinity());
  } while (cell_of(t) < c);
  return t;
}

void MemCellFilter::EraseAdmitted(const geom::GridCell& cell) {
  const size_t mask = slots_.size() - 1;
  size_t i = geom::GridCellHash()(cell) & mask;
  while (true) {
    Slot& s = slots_[i];
    if (s.state == 0) return;
    if (s.state == 1 && s.cell == cell) {
      if (s.admitted > 0) {
        s.state = 2;  // tombstone; its k-best record is dead with it
        --live_cells_;
        ++cells_evicted_;
        if (evicted_metric_ != nullptr) evicted_metric_->Add();
      }
      return;
    }
    i = (i + 1) & mask;
  }
}

void MemCellFilter::EvictUpToSlow(double frontier) {
  while (!eviction_queue_.empty() &&
         eviction_queue_.top().max_dist < frontier) {
    const geom::GridCell cell = eviction_queue_.top().cell;
    eviction_queue_.pop();
    EraseAdmitted(cell);
  }
}

bool MemCellFilter::AdmitPoint(const geom::Point& p) {
  if (!grid_.has_value()) return true;
  Slot* s = FindOrCreate(grid_->CellOf(p));
  if (s->admitted >= k_) return false;  // cell already reported k points
  if (s->admitted == 0) {
    ++live_cells_;
    if (visited_metric_ != nullptr) visited_metric_->Add();
    eviction_queue_.push(EvictionEntry{
        geom::MaxDist(anchor_, grid_->CellRect(s->cell)), s->cell});
  }
  ++s->admitted;
  peak_live_cells_ = std::max(peak_live_cells_, live_cells_);
  return true;
}

bool MemCellFilter::CoveredByFullCells(const geom::Rect& mbr) const {
  if (!grid_.has_value() || live_cells_ == 0) return false;
  // Hand-rolled copy of CountCellsOverlapping + ForEachCellOverlapping
  // (identical verdicts, no std::function per cell): false when the
  // rectangle overlaps more cells than serving::kMaxCoverageCells (the
  // conservative "cannot decide" cap), more cells than are live (the
  // oracle's cheap short-circuit), or any overlapped cell has reported fewer
  // than k. The per-axis cap goes first so the product cannot overflow.
  if (mbr.IsEmpty()) return true;
  const geom::GridCell lo = grid_->CellOf(mbr.min);
  const geom::GridCell hi = grid_->CellOf(mbr.max);
  const int64_t nx = hi.ix - lo.ix + 1;
  const int64_t ny = hi.iy - lo.iy + 1;
  if (nx <= 0 || ny <= 0) return true;
  if (nx > serving::kMaxCoverageCells || ny > serving::kMaxCoverageCells ||
      nx * ny > serving::kMaxCoverageCells ||
      nx * ny > static_cast<int64_t>(live_cells_)) {
    return false;
  }
  for (int64_t iy = lo.iy; iy <= hi.iy; ++iy) {
    for (int64_t ix = lo.ix; ix <= hi.ix; ++ix) {
      const Slot* s = Find(geom::GridCell{ix, iy});
      if (s == nullptr || s->admitted < k_) return false;
    }
  }
  return true;
}

}  // namespace spacetwist::memidx
