#include "rtree/bulk_load.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "rtree/node.h"
#include "storage/page.h"

namespace spacetwist::rtree {

namespace {

/// Groups `items` (sorted globally by x-center, then per vertical slice by
/// y-center) into STR tiles and emits runs of at most `node_cap` items, each
/// run becoming one node. Returns the runs in packing order.
template <typename Item>
std::vector<std::vector<Item>> StrPack(std::vector<Item> items,
                                       size_t node_cap,
                                       double (*center_x)(const Item&),
                                       double (*center_y)(const Item&)) {
  const size_t n = items.size();
  const size_t node_count =
      (n + node_cap - 1) / node_cap;  // ceil(n / cap)
  const size_t slice_count = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(node_count))));
  const size_t slice_size = slice_count * node_cap;

  std::sort(items.begin(), items.end(), [&](const Item& a, const Item& b) {
    return center_x(a) < center_x(b);
  });

  std::vector<std::vector<Item>> runs;
  runs.reserve(node_count);
  for (size_t begin = 0; begin < n; begin += slice_size) {
    const size_t end = std::min(n, begin + slice_size);
    std::sort(items.begin() + begin, items.begin() + end,
              [&](const Item& a, const Item& b) {
                return center_y(a) < center_y(b);
              });
    for (size_t run = begin; run < end; run += node_cap) {
      const size_t run_end = std::min(end, run + node_cap);
      runs.emplace_back(items.begin() + run, items.begin() + run_end);
    }
  }
  return runs;
}

/// STR sort coordinates: point coordinates for leaves, MBR centers (times
/// two — only the order matters) for branch entries.
double StrPointCenterX(const DataPoint& p) { return p.point.x; }
double StrPointCenterY(const DataPoint& p) { return p.point.y; }
double StrBranchCenterX(const BranchEntry& b) {
  return b.mbr.min.x + b.mbr.max.x;
}
double StrBranchCenterY(const BranchEntry& b) {
  return b.mbr.min.y + b.mbr.max.y;
}

}  // namespace

Result<std::unique_ptr<RTree>> BulkLoad(storage::Pager* pager,
                                        const BulkLoadOptions& options,
                                        std::vector<DataPoint> points) {
  if (pager == nullptr) return Status::InvalidArgument("pager is null");
  if (options.fill <= 0.0 || options.fill > 1.0) {
    return Status::InvalidArgument("fill must be in (0, 1]");
  }
  if (points.empty()) {
    // Degenerate: an empty tree via the normal construction path.
    return RTree::Create(pager, options.tree);
  }

  const size_t page_size = options.tree.page_size;
  const size_t leaf_cap = std::max<size_t>(
      1, static_cast<size_t>(LeafCapacity(page_size) * options.fill));
  const size_t branch_cap = std::max<size_t>(
      2, static_cast<size_t>(BranchCapacity(page_size) * options.fill));
  const uint64_t total = points.size();

  // Level 0: pack the points into leaves.
  std::vector<BranchEntry> level_entries;
  {
    std::vector<std::vector<DataPoint>> runs =
        StrPack(std::move(points), leaf_cap, &StrPointCenterX,
                &StrPointCenterY);
    level_entries.reserve(runs.size());
    storage::Page page(page_size);
    for (auto& run : runs) {
      Node node;
      node.level = 0;
      node.points = std::move(run);
      const storage::PageId id = pager->Allocate();
      SPACETWIST_RETURN_NOT_OK(SerializeNode(node, &page));
      SPACETWIST_RETURN_NOT_OK(pager->Write(id, page));
      level_entries.push_back(BranchEntry{node.ComputeMbr(), id});
    }
  }

  // Upper levels: pack child entries until a single root remains.
  int level = 1;
  while (level_entries.size() > 1) {
    std::vector<std::vector<BranchEntry>> runs = StrPack(
        std::move(level_entries), branch_cap, &StrBranchCenterX,
        &StrBranchCenterY);
    std::vector<BranchEntry> next;
    next.reserve(runs.size());
    storage::Page page(page_size);
    for (auto& run : runs) {
      Node node;
      node.level = level;
      node.branches = std::move(run);
      const storage::PageId id = pager->Allocate();
      SPACETWIST_RETURN_NOT_OK(SerializeNode(node, &page));
      SPACETWIST_RETURN_NOT_OK(pager->Write(id, page));
      next.push_back(BranchEntry{node.ComputeMbr(), id});
    }
    level_entries = std::move(next);
    ++level;
  }

  return RTree::AdoptForBulkLoad(pager, options.tree, level_entries[0].child,
                                 level, total);
}

}  // namespace spacetwist::rtree
