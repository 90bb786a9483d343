#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "datasets/generator.h"
#include "geom/grid.h"
#include "memidx/batch_distance.h"
#include "memidx/mem_cell_filter.h"
#include "memidx/mem_inn_stream.h"
#include "memidx/mem_rtree.h"
#include "rtree/node.h"
#include "rtree/rtree.h"
#include "server/cell_filter.h"
#include "server/granular_inn.h"
#include "server/lbs_server.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"

namespace spacetwist {
namespace {

/// Differential suite: both serving streams — the frontier kernel on the
/// memidx arena and on the paged tree's buffer-pool pages — against the
/// paged GranularInnStream as oracle. The paged tree is bulk-loaded, and in
/// the churn test mutated by a seeded insert/delete interleaving; the arena
/// is a MemRTree::CopyOf its pages, taken again at every checkpoint. The
/// tests then assert
///  * node-for-node structural isomorphism (slot i == page i, same entries
///    in the same order, same float32 coordinates),
///  * exact (distance, id) stream equality of the granular INN sessions —
///    every rank through exhaustion, quantized-duplicate ties included —
///    across dataset shapes, k, epsilon, and churn,
///  * for the paged serving stream, the oracle's node reads and page reads
///    in the oracle's order,
///  * that the copy reads no page through the buffer pool and refuses an
///    overfull page, and
///  * that the kernel's reserved bytes follow the work a pull does, for
///    any epsilon or k.
/// Byte-identity of the wire levels on top of these streams is pinned by
/// memidx_wire_identity_test.cc.

struct DiffCase {
  const char* dataset;  // "UI" | "CL" | "DUP"
  size_t k;
  double epsilon;
};

std::string CaseName(const ::testing::TestParamInfo<DiffCase>& info) {
  return std::string(info.param.dataset) + "_k" +
         std::to_string(info.param.k) + "_eps" +
         std::to_string(static_cast<int>(info.param.epsilon));
}

datasets::Dataset MakeData(const std::string& kind) {
  if (kind == "UI") return datasets::GenerateUniform(4000, 20080407);
  if (kind == "CL") {
    datasets::ClusterParams params;
    params.num_clusters = 40;
    params.sigma = 120;
    params.background_fraction = 0.05;
    return datasets::GenerateClustered(4000, params, 20080407);
  }
  // Duplicate-heavy: every third point is a coordinate-exact copy under a
  // fresh id, so distance ties (the stream order's hard case) are dense.
  datasets::Dataset ds = datasets::GenerateUniform(3000, 20080407);
  const size_t base = ds.points.size();
  for (size_t i = 0; i < base / 3; ++i) {
    rtree::DataPoint dup = ds.points[(i * 11) % base];
    dup.id = static_cast<uint32_t>(base + i);
    ds.points.push_back(dup);
  }
  return ds;
}

/// The paged tree lives in an LbsServer so its serving stream is exactly
/// what OpenInnSource hands the engine. The pool is smaller than the tree,
/// so equal physical-read counts also mean the same page-touch order.
struct Pair {
  std::unique_ptr<server::LbsServer> server;
  rtree::RTree* paged = nullptr;  ///< server->tree()
  std::unique_ptr<memidx::MemRTree> mem;
};

constexpr size_t kPoolPages = 8;

Pair BuildPair(const datasets::Dataset& ds) {
  Pair pair;
  rtree::RTreeOptions options;
  options.buffer_pool_pages = kPoolPages;
  pair.server = server::LbsServer::Build(ds, options).MoveValueOrDie();
  pair.paged = pair.server->tree();
  pair.mem = memidx::MemRTree::CopyOf(*pair.paged).MoveValueOrDie();
  return pair;
}

/// Slot i of the mem tree must hold byte-for-byte the entries of page i.
void ExpectIsomorphic(Pair* pair) {
  ASSERT_EQ(pair->paged->root(), pair->mem->root());
  ASSERT_EQ(pair->paged->height(), pair->mem->height());
  ASSERT_EQ(pair->paged->size(), pair->mem->size());
  std::vector<storage::PageId> stack = {pair->paged->root()};
  while (!stack.empty()) {
    const storage::PageId id = stack.back();
    stack.pop_back();
    rtree::Node a, b;
    ASSERT_TRUE(pair->paged->ReadNode(id, &a).ok());
    ASSERT_TRUE(pair->mem->ReadNode(id, &b).ok());
    ASSERT_EQ(a.level, b.level) << "node " << id;
    ASSERT_EQ(a.points.size(), b.points.size()) << "node " << id;
    for (size_t i = 0; i < a.points.size(); ++i) {
      EXPECT_EQ(a.points[i], b.points[i]) << "node " << id << " entry " << i;
    }
    ASSERT_EQ(a.branches.size(), b.branches.size()) << "node " << id;
    for (size_t i = 0; i < a.branches.size(); ++i) {
      EXPECT_EQ(a.branches[i].child, b.branches[i].child)
          << "node " << id << " entry " << i;
      EXPECT_EQ(a.branches[i].mbr.min.x, b.branches[i].mbr.min.x);
      EXPECT_EQ(a.branches[i].mbr.min.y, b.branches[i].mbr.min.y);
      EXPECT_EQ(a.branches[i].mbr.max.x, b.branches[i].mbr.max.x);
      EXPECT_EQ(a.branches[i].mbr.max.y, b.branches[i].mbr.max.y);
      stack.push_back(a.branches[i].child);
    }
  }
}

/// Pulls the oracle and `candidate` to exhaustion and asserts the exact
/// (distance, id) sequence, rank by rank. `batched` drives the candidate
/// through NextBatch(67) pulls — the path PacketChannel uses — which must
/// flatten to the same sequence.
template <typename Stream>
void ExpectMatchesOracle(rtree::RTree* paged, Stream* candidate,
                         const geom::Point& anchor, double epsilon, size_t k,
                         bool batched) {
  server::GranularInnStream oracle(paged, anchor, epsilon, k,
                                   server::GranularOptions());
  std::vector<rtree::DataPoint> batch;
  size_t batch_next = 0;
  bool batch_dry = false;
  for (int rank = 0;; ++rank) {
    Result<rtree::DataPoint> want = oracle.Next();
    Result<rtree::DataPoint> got = [&]() -> Result<rtree::DataPoint> {
      if (!batched) return candidate->Next();
      if (batch_next == batch.size()) {
        if (batch_dry) return Status::Exhausted("dry");
        batch.clear();
        batch_next = 0;
        const Status s = candidate->NextBatch(67, &batch);
        if (!s.ok()) return s;
        batch_dry = batch.size() < 67;
        if (batch.empty()) return Status::Exhausted("dry");
      }
      return batch[batch_next++];
    }();
    ASSERT_EQ(want.ok(), got.ok())
        << "eps=" << epsilon << " k=" << k << " rank=" << rank;
    if (!want.ok()) {
      EXPECT_TRUE(want.status().IsExhausted());
      break;
    }
    ASSERT_EQ(*want, *got)
        << "eps=" << epsilon << " k=" << k << " rank=" << rank;
    // A batched pull legitimately advances the candidate's cursor past the
    // oracle's rank, so the per-rank distance check only holds unbatched.
    if (!batched) {
      EXPECT_EQ(oracle.last_report_distance(),
                candidate->last_report_distance());
    }
  }
  // The kernel prunes dominated same-cell points at push time, so it pops
  // at most as many entries as the oracle — but its expansion decisions
  // must be identical (the filter state coincides at every node pop), and
  // its eviction tail can only lag (fewer pops means fewer intermediate
  // frontiers handed to EvictUpTo).
  EXPECT_EQ(oracle.node_reads(), candidate->node_reads());
  EXPECT_LE(candidate->heap_pops(), oracle.heap_pops());
  EXPECT_LE(candidate->cells_evicted(), oracle.cells_evicted());
}

void ExpectStreamsEqual(Pair* pair, const geom::Point& anchor, double epsilon,
                        size_t k, bool batched) {
  memidx::MemInnStream candidate(pair->mem.get(), anchor, epsilon, k,
                                 server::GranularOptions());
  ExpectMatchesOracle(pair->paged, &candidate, anchor, epsilon, k, batched);
}

/// The stream LbsServer::OpenInnSource serves for ServingIndex::kPaged.
std::unique_ptr<memidx::PagedInnStream> OpenPagedServing(
    Pair* pair, const geom::Point& anchor, double epsilon, size_t k,
    const server::GranularOptions& options) {
  std::unique_ptr<server::InnSource> source =
      pair->server->OpenInnSource(anchor, epsilon, k, options);
  auto* paged = dynamic_cast<memidx::PagedInnStream*>(source.get());
  if (paged == nullptr) return nullptr;
  source.release();
  return std::unique_ptr<memidx::PagedInnStream>(paged);
}

/// The paged serving stream against the oracle on the same tree: the exact
/// stream unbatched and through NextBatch(67), then page-level parity with
/// each stream run alone from a Clear()ed pool — equal node reads, equal
/// logical and physical page reads (the pool is smaller than the tree, so
/// that pins the page-touch order), no more heap pops — and, per pull,
/// registry counters flushed once with pops >= node reads + points.
void ExpectPagedServingMatchesOracle(Pair* pair, const geom::Point& anchor,
                                     double epsilon, size_t k) {
  for (const bool batched : {false, true}) {
    std::unique_ptr<memidx::PagedInnStream> stream =
        OpenPagedServing(pair, anchor, epsilon, k, server::GranularOptions());
    ASSERT_NE(stream, nullptr) << "kPaged must serve the frontier kernel";
    ExpectMatchesOracle(pair->paged, stream.get(), anchor, epsilon, k,
                        batched);
  }

  storage::BufferPool* pool = pair->paged->buffer_pool();
  pool->Clear();
  const storage::IoStats oracle_before = pool->stats();
  server::GranularInnStream oracle(pair->paged, anchor, epsilon, k);
  while (oracle.Next().ok()) {
  }
  const storage::IoStats oracle_after = pool->stats();

  pool->Clear();
  telemetry::MetricRegistry registry;
  server::GranularOptions options;
  options.registry = &registry;
  std::unique_ptr<memidx::PagedInnStream> stream =
      OpenPagedServing(pair, anchor, epsilon, k, options);
  ASSERT_NE(stream, nullptr);
  telemetry::Counter* pops_metric =
      registry.GetCounter("server.granular.heap_pops");
  telemetry::Counter* reads_metric =
      registry.GetCounter("server.granular.node_reads");
  telemetry::Counter* points_metric =
      registry.GetCounter("server.granular.points_reported");
  const storage::IoStats before = pool->stats();
  std::vector<rtree::DataPoint> batch;
  do {
    batch.clear();
    const uint64_t pops = stream->heap_pops();
    const uint64_t reads = stream->node_reads();
    const uint64_t metric_pops = pops_metric->value();
    const uint64_t metric_reads = reads_metric->value();
    const uint64_t metric_points = points_metric->value();
    ASSERT_TRUE(stream->NextBatch(67, &batch).ok());
    const uint64_t pull_pops = stream->heap_pops() - pops;
    const uint64_t pull_reads = stream->node_reads() - reads;
    EXPECT_GE(pull_pops, pull_reads + batch.size());
    EXPECT_EQ(pops_metric->value() - metric_pops, pull_pops);
    EXPECT_EQ(reads_metric->value() - metric_reads, pull_reads);
    EXPECT_EQ(points_metric->value() - metric_points, batch.size());
  } while (batch.size() == 67);
  const storage::IoStats after = pool->stats();

  EXPECT_EQ(stream->node_reads(), oracle.node_reads());
  EXPECT_LE(stream->heap_pops(), oracle.heap_pops());
  EXPECT_EQ(after.logical_reads - before.logical_reads,
            oracle_after.logical_reads - oracle_before.logical_reads);
  EXPECT_EQ(after.physical_reads - before.physical_reads,
            oracle_after.physical_reads - oracle_before.physical_reads);
}

class IndexDifferentialTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(IndexDifferentialTest, BulkLoadedTreesIsomorphicAndStreamsExact) {
  const DiffCase c = GetParam();
  const datasets::Dataset ds = MakeData(c.dataset);
  Pair pair = BuildPair(ds);
  ExpectIsomorphic(&pair);
  const std::vector<geom::Point> anchors = {
      {5000, 5000}, {123, 456}, {9990, 120}, {4000, 9500}};
  for (const geom::Point& anchor : anchors) {
    ExpectStreamsEqual(&pair, anchor, c.epsilon, c.k, /*batched=*/false);
    ExpectStreamsEqual(&pair, anchor, c.epsilon, c.k, /*batched=*/true);
    ExpectPagedServingMatchesOracle(&pair, anchor, c.epsilon, c.k);
  }
}

TEST_P(IndexDifferentialTest, ChurnedTreesStayIsomorphicAndStreamsExact) {
  const DiffCase c = GetParam();
  datasets::Dataset ds = MakeData(c.dataset);
  ds.points.resize(ds.points.size() / 4);  // headroom for split coverage
  Pair pair = BuildPair(ds);

  // Seeded insert/delete interleaving on the paged tree, re-copied into the
  // arena at each checkpoint; inserts are float32-quantized like every
  // dataset producer.
  Rng rng(100);
  std::vector<rtree::DataPoint> live = ds.points;
  uint32_t next_id = 1u << 20;
  for (int op = 0; op < 600; ++op) {
    if (live.empty() || rng.Bernoulli(0.6)) {
      const float x = static_cast<float>(rng.Uniform(0, 10000));
      const float y = static_cast<float>(rng.Uniform(0, 10000));
      rtree::DataPoint p{{static_cast<double>(x), static_cast<double>(y)},
                         next_id++};
      if (rng.Bernoulli(0.2) && !live.empty()) {
        p.point = live[static_cast<size_t>(rng.UniformInt(
                           0, static_cast<int64_t>(live.size()) - 1))]
                      .point;  // duplicate location, fresh id: a forced tie
      }
      ASSERT_TRUE(pair.paged->Insert(p).ok());
      live.push_back(p);
    } else {
      const size_t idx = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      Result<bool> deleted = pair.paged->Delete(live[idx]);
      ASSERT_TRUE(deleted.ok());
      ASSERT_TRUE(*deleted);
      live.erase(live.begin() + idx);
    }
    if (op % 150 == 149) {
      ASSERT_TRUE(pair.paged->Validate().ok()) << "after op " << op;
      pair.mem = memidx::MemRTree::CopyOf(*pair.paged).MoveValueOrDie();
      ExpectIsomorphic(&pair);
      ExpectStreamsEqual(&pair, {5000, 5000}, c.epsilon, c.k,
                         /*batched=*/op % 300 == 299);
      ExpectPagedServingMatchesOracle(&pair, {5000, 5000}, c.epsilon, c.k);
    }
  }
  ExpectIsomorphic(&pair);
  for (const geom::Point& anchor :
       {geom::Point{250, 250}, geom::Point{8000, 1000}}) {
    ExpectStreamsEqual(&pair, anchor, c.epsilon, c.k, /*batched=*/true);
    ExpectPagedServingMatchesOracle(&pair, anchor, c.epsilon, c.k);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IndexDifferentialTest,
    ::testing::Values(DiffCase{"UI", 1, 0.0}, DiffCase{"UI", 1, 500.0},
                      DiffCase{"UI", 16, 50.0}, DiffCase{"CL", 1, 50.0},
                      DiffCase{"CL", 16, 500.0}, DiffCase{"DUP", 1, 0.0},
                      DiffCase{"DUP", 16, 500.0}),
    CaseName);

/// What one pull of the kernel may reserve: the tables every stream starts
/// with — 1,024 slots of 40 bytes and a k-best block of at most 4,096
/// entries of 16 bytes, 104 KiB rounded up to 128 — plus C bytes per leaf
/// entry the pull could have scanned. C = 256: a scanned point creates at
/// most one slot, which the table's 3/4 fill rule and doubling make at most
/// 8/3 reserved slots (107 bytes), and pushes at most once, owning under 4
/// k-best entries (64 bytes) that the pool's geometric growth at most
/// doubles (128 bytes).
constexpr size_t kInitialTableBytes = 128 * 1024;
constexpr size_t kBytesPerScannedEntry = 256;

template <typename Stream>
void ExpectFirstPullBoundedByWork(Stream* stream, size_t leaf_capacity) {
  EXPECT_LE(stream->reserved_bytes(), kInitialTableBytes);
  std::vector<rtree::DataPoint> batch;
  ASSERT_TRUE(stream->NextBatch(67, &batch).ok());
  EXPECT_EQ(batch.size(), 67u);
  EXPECT_LE(stream->reserved_bytes(),
            kInitialTableBytes +
                kBytesPerScannedEntry * stream->node_reads() * leaf_capacity)
      << "node reads " << stream->node_reads();
}

/// Memory bounded by work: no epsilon and no k makes the kernel reserve
/// more than its pull scanned, on either store, and pulled to exhaustion
/// the streams still equal the oracle's — points, node reads and page
/// reads. The cases reach where a cache dense in 1/epsilon or k k-best
/// entries per cell would need gigabytes.
TEST(KernelMemoryTest, AnyEpsilonOrKReservesBytesBoundedByWork) {
  struct Case {
    double epsilon;
    size_t k;
  };
  const std::vector<Case> cases = {
      {1e-4, 1}, {1e-6, 1}, {1e-12, 1}, {200, 100000}, {200, 4000000000}};
  Pair pair = BuildPair(MakeData("UI"));
  const geom::Point anchor{5000, 5000};
  const size_t leaf_capacity = pair.paged->leaf_capacity();
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message()
                 << "eps=" << c.epsilon << " k=" << c.k);
    memidx::MemInnStream arena(pair.mem.get(), anchor, c.epsilon, c.k,
                               server::GranularOptions());
    ExpectFirstPullBoundedByWork(&arena, leaf_capacity);
    std::unique_ptr<memidx::PagedInnStream> paged = OpenPagedServing(
        &pair, anchor, c.epsilon, c.k, server::GranularOptions());
    ASSERT_NE(paged, nullptr);
    ExpectFirstPullBoundedByWork(paged.get(), leaf_capacity);

    ExpectStreamsEqual(&pair, anchor, c.epsilon, c.k, /*batched=*/true);
    ExpectPagedServingMatchesOracle(&pair, anchor, c.epsilon, c.k);
  }
}

/// At the smallest positive epsilon an Open may carry (1e-9 m) a
/// domain-wide MBR spans about 1.4e13 cells per axis, so its cell count
/// overflows int64. The count saturates, and both filters refuse to decide
/// coverage without forming the product (UBSan in the sanitizer job
/// checks that).
TEST(CellFilterTest, CoverageAtTheSmallestEpsilonDoesNotOverflow) {
  const double epsilon = 1e-9;
  const geom::Point anchor{5000, 5000};
  const geom::Rect domain{{0, 0}, {10000, 10000}};
  EXPECT_EQ(geom::Grid(epsilon / std::sqrt(2.0)).CountCellsOverlapping(domain),
            std::numeric_limits<int64_t>::max());
  memidx::MemCellFilter kernel(anchor, epsilon, 1, /*lazy_eviction=*/true);
  server::CellFilter oracle(anchor, epsilon, 1, /*lazy_eviction=*/true);
  EXPECT_TRUE(kernel.AdmitPoint(anchor));
  EXPECT_TRUE(oracle.AdmitPoint(anchor));
  EXPECT_FALSE(kernel.CoveredByFullCells(domain));
  EXPECT_FALSE(oracle.CoveredByFullCells(domain));
}

/// A leaf-scan plan's MBR over `nx` x `ny` cells: from the center of cell
/// `lo` to the center of the cell nx - 1 columns and ny - 1 rows beyond.
geom::Rect PlanMbr(const geom::Grid& grid, const geom::GridCell& lo,
                   int64_t nx, int64_t ny) {
  const double l = grid.cell_extent();
  return geom::Rect{
      geom::Point{(static_cast<double>(lo.ix) + 0.5) * l,
                  (static_cast<double>(lo.iy) + 0.5) * l},
      geom::Point{(static_cast<double>(lo.ix + nx) - 0.5) * l,
                  (static_cast<double>(lo.iy + ny) - 0.5) * l}};
}

/// Float32 coordinates on an axis of a plan: each internal cell-boundary
/// threshold, one ulp either side of it, and every cell's center — those
/// that Grid::CellOf (column `first` to `last` along `cell_of`) keeps
/// inside the plan.
std::vector<float> EdgeCoordinates(
    const float* thresholds, int64_t n, const geom::Grid& grid,
    int64_t first, int64_t last,
    const std::function<int64_t(float)>& cell_of) {
  std::vector<float> candidates;
  for (int64_t j = 0; j + 1 < n; ++j) {
    const float t = thresholds[j];
    candidates.push_back(std::nextafterf(t, -INFINITY));
    candidates.push_back(t);
    candidates.push_back(std::nextafterf(t, INFINITY));
  }
  for (int64_t c = first; c <= last; ++c) {
    candidates.push_back(static_cast<float>(
        (static_cast<double>(c) + 0.5) * grid.cell_extent()));
  }
  std::vector<float> inside;
  for (const float v : candidates) {
    const int64_t c = cell_of(v);
    if (c >= first && c <= last) inside.push_back(v);
  }
  return inside;
}

/// The classification pass gives every point Grid::CellOf's cell — exactly
/// on each boundary threshold and one float32 ulp either side of it — for
/// plans of 1x1 to 4x4 cells and 16x1, at cell extents from leaf order
/// down to a few float32 ulps, on both sides of the origin.
TEST(LeafScanPlanTest, ClassificationMatchesCellOfAtEveryEdge) {
  std::vector<std::pair<int64_t, int64_t>> shapes = {{16, 1}};
  for (int64_t nx = 1; nx <= 4; ++nx) {
    for (int64_t ny = 1; ny <= 4; ++ny) shapes.push_back({nx, ny});
  }
  size_t on_threshold = 0;
  for (const double epsilon : {200.0, 0.5, 1e-3}) {
    const geom::Grid grid(epsilon / std::sqrt(2.0));
    for (const geom::Point origin :
         {geom::Point{-1.0, -1.0}, geom::Point{5000.3, 4999.7},
          geom::Point{9990.0, 13.0}}) {
      for (const auto& [nx, ny] : shapes) {
        memidx::MemCellFilter filter(origin, epsilon, 4,
                                     /*lazy_eviction=*/true);
        const geom::GridCell lo = grid.CellOf(origin);
        memidx::MemCellFilter::LeafScanPlan plan;
        ASSERT_TRUE(filter.BeginLeafScan(PlanMbr(grid, lo, nx, ny), &plan));
        ASSERT_EQ(plan.c0x, lo.ix);
        ASSERT_EQ(plan.c0y, lo.iy);
        ASSERT_EQ(plan.nx, nx);
        ASSERT_EQ(plan.ny, ny);
        const std::vector<float> xs_axis = EdgeCoordinates(
            plan.bx.data(), nx, grid, lo.ix, lo.ix + nx - 1, [&](float v) {
              return grid.CellOf(geom::Point{v, 0.0}).ix;
            });
        const std::vector<float> ys_axis = EdgeCoordinates(
            plan.by.data(), ny, grid, lo.iy, lo.iy + ny - 1, [&](float v) {
              return grid.CellOf(geom::Point{0.0, v}).iy;
            });
        std::vector<float> xs, ys;
        for (const float x : xs_axis) {
          for (const float y : ys_axis) {
            xs.push_back(x);
            ys.push_back(y);
          }
        }
        std::vector<uint32_t> cells(xs.size());
        memidx::MemCellFilter::ClassifyLeafPoints(plan, xs.data(), ys.data(),
                                                  xs.size(), cells.data());
        for (size_t i = 0; i < xs.size(); ++i) {
          const geom::GridCell want = grid.CellOf(geom::Point{xs[i], ys[i]});
          EXPECT_EQ(cells[i], static_cast<uint32_t>((want.iy - lo.iy) * nx +
                                                    (want.ix - lo.ix)))
              << "eps=" << epsilon << " plan " << nx << "x" << ny << " at ("
              << xs[i] << ", " << ys[i] << ")";
        }
        for (int64_t j = 0; j + 1 < nx; ++j) {
          on_threshold += std::count(xs.begin(), xs.end(), plan.bx[j]);
        }
      }
    }
  }
  EXPECT_GT(on_threshold, 0u);
}

/// A full cell's plan threshold is -inf: the scan rejects each of its
/// points, the one at distance zero included, and a plan whose every cell
/// is full skips the leaf.
TEST(LeafScanPlanTest, FullCellRejectsEveryPoint) {
  const double epsilon = 200.0;
  const geom::Grid grid(epsilon / std::sqrt(2.0));
  const geom::Point anchor{5000.25, 5000.5};
  const geom::GridCell lo = grid.CellOf(anchor);
  const size_t k = 2;
  memidx::MemCellFilter filter(anchor, epsilon, k, /*lazy_eviction=*/true);
  for (size_t i = 0; i < k; ++i) ASSERT_TRUE(filter.AdmitPoint(anchor));

  memidx::MemCellFilter::LeafScanPlan plan;
  ASSERT_TRUE(filter.BeginLeafScan(PlanMbr(grid, lo, 2, 2), &plan));
  EXPECT_FALSE(plan.skip_all);
  EXPECT_EQ(plan.slot[0], memidx::MemCellFilter::kFullCell);
  EXPECT_EQ(plan.reject[0], -std::numeric_limits<double>::infinity());
  for (size_t c = 1; c < 4; ++c) {
    EXPECT_EQ(plan.reject[c], std::numeric_limits<double>::infinity());
  }
  const geom::Rect full = grid.CellRect(lo);
  Rng rng(77);
  std::vector<float> xs = {static_cast<float>(anchor.x)};
  std::vector<float> ys = {static_cast<float>(anchor.y)};
  for (int i = 0; i < 200; ++i) {
    xs.push_back(static_cast<float>(rng.Uniform(full.min.x, full.max.x)));
    ys.push_back(static_cast<float>(rng.Uniform(full.min.y, full.max.y)));
  }
  std::vector<uint32_t> cells(xs.size());
  memidx::MemCellFilter::ClassifyLeafPoints(plan, xs.data(), ys.data(),
                                            xs.size(), cells.data());
  for (size_t i = 0; i < xs.size(); ++i) {
    if (grid.CellOf(geom::Point{xs[i], ys[i]}) != lo) continue;
    ASSERT_EQ(cells[i], 0u);
    EXPECT_GT(memidx::ScalarSquaredDistance(anchor, xs[i], ys[i]),
              plan.reject[cells[i]]);
  }

  for (int64_t iy = 0; iy < 2; ++iy) {
    for (int64_t ix = 0; ix < 2; ++ix) {
      const geom::Rect cell =
          grid.CellRect(geom::GridCell{lo.ix + ix, lo.iy + iy});
      const geom::Point center{(cell.min.x + cell.max.x) / 2,
                               (cell.min.y + cell.max.y) / 2};
      while (filter.AdmitPoint(center)) {
      }
    }
  }
  ASSERT_TRUE(filter.BeginLeafScan(PlanMbr(grid, lo, 2, 2), &plan));
  EXPECT_TRUE(plan.skip_all);
}

/// Over random leaves — point ties, points on cell edges, cells filling up
/// and evicted between leaves — the plan path (one compare against the
/// point's cell threshold, then PushScanPoint) gives every point the
/// verdict and key AdmitToFrontier gives it on a twin filter fed the same
/// history: reject, fresh push, or the same replaced handle.
TEST(LeafScanPlanTest, ScanVerdictsMatchAdmitToFrontier) {
  using Filter = memidx::MemCellFilter;
  for (const size_t k : {size_t{1}, size_t{16}}) {
    const double epsilon = 200.0;
    const geom::Grid grid(epsilon / std::sqrt(2.0));
    const double l = grid.cell_extent();
    const geom::Point anchor{5000.5, 4999.25};
    Filter scan(anchor, epsilon, k, /*lazy_eviction=*/true);
    Filter twin(anchor, epsilon, k, /*lazy_eviction=*/true);
    Rng rng(1000 + k);
    uint32_t next_handle = 0;
    std::vector<geom::Point> pushed;
    double frontier = 0.0;
    size_t plans = 0, full_rejects = 0, dominated = 0, fresh = 0,
           replaced = 0;
    for (uint32_t leaf = 0; leaf < 400; ++leaf) {
      const geom::Point at{anchor.x + rng.Uniform(-6 * l, 6 * l),
                           anchor.y + rng.Uniform(-6 * l, 6 * l)};
      const geom::Rect mbr{
          at, geom::Point{at.x + rng.Uniform(0, 3.5 * l),
                          at.y + rng.Uniform(0, 3.5 * l)}};
      Filter::LeafScanPlan plan;
      if (!scan.BeginLeafScan(mbr, &plan)) continue;
      ++plans;
      const size_t n = static_cast<size_t>(rng.UniformInt(1, 84));
      std::vector<float> xs, ys;
      std::vector<uint32_t> ids;
      for (size_t i = 0; i < n; ++i) {
        float x = static_cast<float>(rng.Uniform(mbr.min.x, mbr.max.x));
        float y = static_cast<float>(rng.Uniform(mbr.min.y, mbr.max.y));
        if (i > 0 && rng.Bernoulli(0.2)) {  // a tie with an earlier point
          const size_t j = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(i) - 1));
          x = xs[j];
          y = ys[j];
        } else if (plan.nx > 1 && rng.Bernoulli(0.1)) {  // on a cell edge
          x = plan.bx[static_cast<size_t>(rng.UniformInt(0, plan.nx - 2))];
        }
        xs.push_back(x);
        ys.push_back(y);
        // Alternate id order so ties break both ways.
        ids.push_back(leaf * 100 + static_cast<uint32_t>(
                                       leaf % 2 == 0 ? i : 99 - i));
      }
      std::vector<uint32_t> cells(n);
      Filter::ClassifyLeafPoints(plan, xs.data(), ys.data(), n, cells.data());
      for (size_t i = 0; i < n; ++i) {
        const geom::Point p{xs[i], ys[i]};
        const double d2 = memidx::ScalarSquaredDistance(anchor, xs[i], ys[i]);
        double scan_key = -1.0;
        double twin_key = -1.0;
        const uint32_t cell = cells[i];
        int64_t got = Filter::kRejectAction;
        if (d2 <= plan.reject[cell]) {
          got = scan.PushScanPoint(&plan, cell, d2, ids[i], next_handle,
                                   &scan_key);
        } else if (plan.slot[cell] == Filter::kFullCell) {
          ++full_rejects;
        } else {
          ++dominated;
        }
        const int64_t want =
            twin.AdmitToFrontier(p, d2, ids[i], next_handle, &twin_key);
        ASSERT_EQ(got, want) << "k=" << k << " leaf " << leaf << " point "
                             << i;
        if (want == Filter::kRejectAction) continue;
        EXPECT_EQ(scan_key, twin_key);
        if (want == Filter::kFreshAction) {
          ++fresh;
          ++next_handle;
          pushed.push_back(p);
        } else {
          ++replaced;
        }
      }
      // Pop-time events between leaves, the same on both filters.
      const int64_t admits = rng.UniformInt(0, 20);
      for (int64_t a = 0; a < admits && !pushed.empty(); ++a) {
        const geom::Point& p = pushed[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(pushed.size()) - 1))];
        ASSERT_EQ(scan.AdmitPoint(p), twin.AdmitPoint(p));
      }
      frontier += rng.Uniform(0.0, 2.0);
      scan.EvictUpTo(frontier);
      twin.EvictUpTo(frontier);
    }
    EXPECT_GT(plans, 200u) << "k=" << k;
    EXPECT_GT(full_rejects, 0u) << "k=" << k;
    EXPECT_GT(dominated, 0u) << "k=" << k;
    EXPECT_GT(fresh, 0u) << "k=" << k;
    EXPECT_GT(replaced, 0u) << "k=" << k;
    EXPECT_GT(scan.cells_evicted(), 0u) << "k=" << k;
    EXPECT_EQ(scan.cells_evicted(), twin.cells_evicted()) << "k=" << k;
  }
}

/// Rewrites a page in place with an entry count one past its level's
/// capacity: the root (a branch on every dataset here) or, with `leaf`, the
/// leftmost leaf.
void OverfillPage(rtree::RTree* tree, bool leaf) {
  rtree::Node node;
  storage::PageId id = tree->root();
  ASSERT_TRUE(tree->ReadNode(id, &node).ok());
  ASSERT_FALSE(node.IsLeaf());
  while (leaf && !node.IsLeaf()) {
    id = node.branches[0].child;
    ASSERT_TRUE(tree->ReadNode(id, &node).ok());
  }
  storage::BufferPool* pool = tree->buffer_pool();
  storage::Page page = *pool->Fetch(id).MoveValueOrDie();
  const size_t cap = page.GetU8(0) == 0 ? tree->leaf_capacity()
                                        : tree->branch_capacity();
  page.PutU16(2, static_cast<uint16_t>(cap + 1));
  ASSERT_TRUE(pool->Write(id, page).ok());
}

/// A page claiming more entries than fit is kCorruption from NextBatch —
/// the page store's capacity check — never a read past the page or the
/// leaf scratch arrays.
TEST(PagedServingStreamTest, OverfullPageIsCorruption) {
  for (const bool leaf : {true, false}) {
    Pair pair = BuildPair(MakeData("UI"));
    OverfillPage(pair.paged, leaf);
    std::unique_ptr<memidx::PagedInnStream> stream = OpenPagedServing(
        &pair, {0, 0}, 0.0, 1, server::GranularOptions());
    ASSERT_NE(stream, nullptr);
    std::vector<rtree::DataPoint> batch;
    Status status;
    do {
      batch.clear();
      status = stream->NextBatch(67, &batch);
    } while (status.ok() && batch.size() == 67);
    EXPECT_TRUE(status.IsCorruption())
        << (leaf ? "leaf" : "branch") << ": " << status.ToString();
  }
}

/// CopyOf checks each page's header before decoding it, as the page store
/// does per fetch: an overfull page is kCorruption, never a decode past the
/// page or the arena slot.
TEST(MemRTreeCopyTest, OverfullPageIsCorruption) {
  for (const bool leaf : {true, false}) {
    Pair pair = BuildPair(MakeData("UI"));
    OverfillPage(pair.paged, leaf);
    const Result<std::unique_ptr<memidx::MemRTree>> copy =
        memidx::MemRTree::CopyOf(*pair.paged);
    EXPECT_TRUE(copy.status().IsCorruption())
        << (leaf ? "leaf" : "branch") << ": " << copy.status().ToString();
  }
}

/// The pool's LRU, stats and the storage.buffer_pool.* counters are the
/// paged tree's I/O-cost metric, so the copy reads the pager directly: a
/// kMemidx build leaves the pool cold and the counters where they were.
TEST(MemRTreeCopyTest, MemidxBuildLeavesTheBufferPoolCold) {
  const datasets::Dataset ds = MakeData("UI");
  telemetry::MetricRegistry* registry = telemetry::MetricRegistry::Default();
  telemetry::Counter* hits = registry->GetCounter("storage.buffer_pool.hits");
  telemetry::Counter* misses =
      registry->GetCounter("storage.buffer_pool.misses");
  const uint64_t hits_before = hits->value();
  const uint64_t misses_before = misses->value();

  std::unique_ptr<server::LbsServer> lbs =
      server::LbsServer::Build(ds, rtree::RTreeOptions(),
                               server::ServingIndex::kMemidx)
          .MoveValueOrDie();
  ASSERT_NE(lbs->mem_tree(), nullptr);
  EXPECT_EQ(lbs->mem_tree()->size(), ds.points.size());

  const storage::IoStats io = lbs->io_stats();
  EXPECT_EQ(io.logical_reads, 0u);
  EXPECT_EQ(io.physical_reads, 0u);
  EXPECT_EQ(io.physical_writes, 0u);
  EXPECT_EQ(io.pages_allocated, 0u);
  EXPECT_EQ(lbs->tree()->buffer_pool()->cached_pages(), 0u);
  EXPECT_EQ(hits->value(), hits_before);
  EXPECT_EQ(misses->value(), misses_before);
}

/// Every "server.page.fetch" span notes whether *that* fetch missed, even
/// while other threads fetch through the same pool: each note is 0 or 1,
/// and the notes of all threads add up to the pool's physical reads.
TEST(PagedServingStreamTest, ConcurrentMissNotesAreExactPerFetch) {
  const datasets::Dataset ds = MakeData("UI");
  rtree::RTreeOptions options;
  options.buffer_pool_pages = 16;
  options.concurrent_reads = true;
  std::unique_ptr<server::LbsServer> lbs =
      server::LbsServer::Build(ds, options).MoveValueOrDie();
  storage::BufferPool* pool = lbs->tree()->buffer_pool();
  const uint64_t physical_before = pool->stats().physical_reads;

  constexpr int kThreads = 4;
  std::vector<std::unique_ptr<telemetry::Trace>> traces;
  std::vector<Status> failures(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    traces.push_back(std::make_unique<telemetry::Trace>());
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      std::vector<rtree::DataPoint> batch;
      for (int q = 0; q < 12; ++q) {
        const geom::Point anchor{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
        // Alternate the serving kernel and the oracle: both note misses.
        std::unique_ptr<server::InnSource> source =
            q % 2 == 0
                ? lbs->OpenInnSource(anchor, 50.0, 4, server::GranularOptions())
                : std::unique_ptr<server::InnSource>(
                      lbs->OpenGranularSession(anchor, 50.0, 4));
        source->set_trace(traces[static_cast<size_t>(t)].get());
        for (int pull = 0; pull < 3; ++pull) {
          batch.clear();
          const Status s = source->NextBatch(67, &batch);
          if (!s.ok()) failures[static_cast<size_t>(t)] = s;
        }
        source->set_trace(nullptr);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  uint64_t fetches = 0;
  uint64_t misses = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[static_cast<size_t>(t)].ok())
        << failures[static_cast<size_t>(t)].ToString();
    for (const telemetry::SpanRecord& span :
         traces[static_cast<size_t>(t)]->records()) {
      if (span.name != "server.page.fetch") continue;
      ++fetches;
      bool noted = false;
      for (const auto& [key, value] : span.notes) {
        if (key != "miss") continue;
        noted = true;
        EXPECT_LE(value, 1u);
        misses += value;
      }
      EXPECT_TRUE(noted);
    }
  }
  EXPECT_GT(fetches, misses);
  EXPECT_GT(misses, 0u);
  EXPECT_EQ(misses, pool->stats().physical_reads - physical_before);
}

}  // namespace
}  // namespace spacetwist
