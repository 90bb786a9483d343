#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.h"
#include "rtree/bulk_load.h"
#include "rtree/rtree.h"
#include "storage/pager.h"

namespace spacetwist::rtree {
namespace {

/// Randomized operation-sequence test: interleaved inserts and deletes
/// against a multiset oracle, with periodic structural validation and
/// query cross-checks. Parameterized over seeds so each instance explores a
/// different trajectory.
class RTreeStressTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RTreeStressTest, RandomOpsAgainstOracle) {
  Rng rng(GetParam());
  storage::Pager pager;
  auto tree = RTree::Create(&pager, RTreeOptions()).MoveValueOrDie();

  std::vector<DataPoint> live;  // oracle
  uint32_t next_id = 0;

  const auto random_point = [&] {
    const float x = static_cast<float>(rng.Uniform(0, 1000));
    const float y = static_cast<float>(rng.Uniform(0, 1000));
    return geom::Point{static_cast<double>(x), static_cast<double>(y)};
  };

  for (int op = 0; op < 3000; ++op) {
    const bool do_insert = live.empty() || rng.Bernoulli(0.6);
    if (do_insert) {
      const DataPoint p{random_point(), next_id++};
      ASSERT_TRUE(tree->Insert(p).ok());
      live.push_back(p);
    } else {
      const size_t idx = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      auto removed = tree->Delete(live[idx]);
      ASSERT_TRUE(removed.ok());
      ASSERT_TRUE(*removed);
      live.erase(live.begin() + idx);
    }
    ASSERT_EQ(tree->size(), live.size());

    if (op % 250 == 249) {
      ASSERT_TRUE(tree->Validate().ok()) << "after op " << op;

      // kNN cross-check.
      const geom::Point q = random_point();
      const size_t k = 1 + static_cast<size_t>(rng.UniformInt(0, 4));
      std::vector<double> expected;
      for (const DataPoint& p : live) {
        expected.push_back(geom::Distance(q, p.point));
      }
      std::sort(expected.begin(), expected.end());
      expected.resize(std::min(k, expected.size()));
      auto got = tree->KnnQuery(q, k);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_NEAR((*got)[i].distance, expected[i], 1e-9);
      }

      // Range cross-check.
      const geom::Point corner = random_point();
      const geom::Rect window{corner, {corner.x + 200, corner.y + 200}};
      std::vector<DataPoint> in_window;
      ASSERT_TRUE(tree->RangeQuery(window, &in_window).ok());
      size_t oracle_count = 0;
      for (const DataPoint& p : live) {
        if (window.Contains(p.point)) ++oracle_count;
      }
      EXPECT_EQ(in_window.size(), oracle_count);
    }
  }
  ASSERT_TRUE(tree->Validate().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RTreeStressTest,
                         ::testing::Values(101, 202, 303, 404));

/// Deleting every point inserted in the same order leaves an empty,
/// structurally valid tree regardless of the data distribution.
class RTreeDrainTest : public ::testing::TestWithParam<int> {};

TEST_P(RTreeDrainTest, InsertAllDeleteAll) {
  const int variant = GetParam();
  Rng rng(500 + variant);
  storage::Pager pager;
  auto tree = RTree::Create(&pager, RTreeOptions()).MoveValueOrDie();
  std::vector<DataPoint> points;
  for (uint32_t i = 0; i < 800; ++i) {
    geom::Point p;
    switch (variant) {
      case 0:  // uniform (float32-quantized, as stored coordinates are)
        p = {static_cast<float>(rng.Uniform(0, 1000)),
             static_cast<float>(rng.Uniform(0, 1000))};
        break;
      case 1:  // collinear (degenerate MBRs)
        p = {static_cast<double>(i), 500.0};
        break;
      case 2:  // tight cluster with duplicates
        p = {500.0 + (i % 7), 500.0 + (i % 3)};
        break;
      default:  // grid
        p = {static_cast<double>(i % 30) * 30,
             static_cast<double>(i / 30) * 30};
        break;
    }
    points.push_back({p, i});
    ASSERT_TRUE(tree->Insert(points.back()).ok());
  }
  ASSERT_TRUE(tree->Validate().ok());
  for (const DataPoint& p : points) {
    auto removed = tree->Delete(p);
    ASSERT_TRUE(removed.ok());
    ASSERT_TRUE(*removed);
  }
  EXPECT_EQ(tree->size(), 0u);
  ASSERT_TRUE(tree->Validate().ok());
}

INSTANTIATE_TEST_SUITE_P(Distributions, RTreeDrainTest,
                         ::testing::Values(0, 1, 2, 3));

TEST(RTreeEdgeTest, SmallPagesStillWork) {
  // 256-byte pages: leaf capacity 21, branch capacity 12 — forces deep
  // trees quickly.
  storage::Pager pager(256);
  RTreeOptions opts;
  opts.page_size = 256;
  auto tree = RTree::Create(&pager, opts).MoveValueOrDie();
  Rng rng(7);
  std::vector<DataPoint> pts;
  for (uint32_t i = 0; i < 2000; ++i) {
    pts.push_back({{rng.Uniform(0, 100), rng.Uniform(0, 100)}, i});
    ASSERT_TRUE(tree->Insert(pts.back()).ok());
  }
  EXPECT_GE(tree->height(), 3);
  ASSERT_TRUE(tree->Validate().ok());
  auto knn = tree->KnnQuery({50, 50}, 5);
  ASSERT_TRUE(knn.ok());
  EXPECT_EQ(knn->size(), 5u);
}

TEST(RTreeEdgeTest, PointsOnDomainBoundary) {
  storage::Pager pager;
  auto tree = RTree::Create(&pager, RTreeOptions()).MoveValueOrDie();
  for (uint32_t i = 0; i < 200; ++i) {
    const double t = i * 50.0;
    ASSERT_TRUE(tree->Insert({{0.0, t}, i}).ok());
    ASSERT_TRUE(tree->Insert({{10000.0, t}, 1000 + i}).ok());
  }
  ASSERT_TRUE(tree->Validate().ok());
  auto knn = tree->KnnQuery({0, 0}, 1);
  ASSERT_TRUE(knn.ok());
  EXPECT_NEAR((*knn)[0].distance, 0.0, 1e-9);
}

/// Unquantized point producers must fail loudly: node writes narrow
/// coordinates to float32, so a Delete keyed on the original full-precision
/// double misses, and only the requantized key round-trips — the tree never
/// silently "finds" a nearby entry.
TEST(RTreeQuantizeTest, DeleteAfterRequantizeRoundTrips) {
  storage::Pager pager;
  auto tree = RTree::Create(&pager, RTreeOptions()).MoveValueOrDie();

  Rng rng(606);
  std::vector<DataPoint> unquantized;
  for (uint32_t i = 0; i < 300; ++i) {
    // Full-precision doubles: almost surely not float32-representable.
    const DataPoint p{{rng.Uniform(0, 10000), rng.Uniform(0, 10000)}, i};
    unquantized.push_back(p);
    ASSERT_TRUE(tree->Insert(p).ok());
  }

  const auto requantize = [](const DataPoint& p) {
    return DataPoint{{static_cast<double>(static_cast<float>(p.point.x)),
                      static_cast<double>(static_cast<float>(p.point.y))},
                     p.id};
  };

  for (const DataPoint& p : unquantized) {
    const DataPoint q = requantize(p);
    if (q == p) continue;  // landed on a float32 grid point; nothing to pin
    // The loud failure: the producer's own key no longer matches.
    auto miss = tree->Delete(p);
    ASSERT_TRUE(miss.ok());
    EXPECT_FALSE(*miss) << "id " << p.id;
    // The requantized key is what the tree actually stored.
    auto hit = tree->Delete(q);
    ASSERT_TRUE(hit.ok());
    EXPECT_TRUE(*hit) << "id " << p.id;
    // And a second delete confirms the entry is really gone, not shadowed.
    auto gone = tree->Delete(q);
    ASSERT_TRUE(gone.ok());
    EXPECT_FALSE(*gone);
  }
  ASSERT_TRUE(tree->Validate().ok());
}

}  // namespace
}  // namespace spacetwist::rtree
