#include "rtree/rtree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/logging.h"
#include "common/strings.h"
#include "rtree/inn_cursor.h"

namespace spacetwist::rtree {

namespace {

geom::Rect RectOf(const DataPoint& p) {
  return geom::Rect::FromPoint(p.point);
}
geom::Rect RectOf(const BranchEntry& b) { return b.mbr; }

double OverlapArea(const geom::Rect& a, const geom::Rect& b) {
  return a.Intersection(b).Area();
}

/// R*-style split: picks the axis with the smallest margin sum over all
/// candidate distributions, then the distribution with the least overlap
/// (ties: least total area). Entries are sorted by rectangle center.
template <typename Entry>
void RStarSplit(std::vector<Entry> entries, size_t min_fill,
                std::vector<Entry>* left, std::vector<Entry>* right) {
  const size_t total = entries.size();
  SPACETWIST_CHECK(total >= 2 * min_fill) << "split needs 2*min_fill entries";

  struct Candidate {
    int axis;
    size_t split_at;  // first `split_at` entries go left
    double margin;
    double overlap;
    double area;
  };

  auto sort_by_axis = [](std::vector<Entry>* es, int axis) {
    std::sort(es->begin(), es->end(), [axis](const Entry& a, const Entry& b) {
      const geom::Rect ra = RectOf(a);
      const geom::Rect rb = RectOf(b);
      const double ca = axis == 0 ? ra.min.x + ra.max.x : ra.min.y + ra.max.y;
      const double cb = axis == 0 ? rb.min.x + rb.max.x : rb.min.y + rb.max.y;
      return ca < cb;
    });
  };

  double best_axis_margin[2] = {std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::infinity()};
  Candidate best_per_axis[2] = {};

  for (int axis = 0; axis < 2; ++axis) {
    std::vector<Entry> sorted = entries;
    sort_by_axis(&sorted, axis);

    // Prefix / suffix MBRs so each distribution is O(1) to evaluate.
    std::vector<geom::Rect> prefix(total), suffix(total);
    geom::Rect acc = geom::Rect::Empty();
    for (size_t i = 0; i < total; ++i) {
      acc.Expand(RectOf(sorted[i]));
      prefix[i] = acc;
    }
    acc = geom::Rect::Empty();
    for (size_t i = total; i-- > 0;) {
      acc.Expand(RectOf(sorted[i]));
      suffix[i] = acc;
    }

    double margin_sum = 0.0;
    Candidate axis_best{axis, 0, 0.0, std::numeric_limits<double>::infinity(),
                        std::numeric_limits<double>::infinity()};
    for (size_t split_at = min_fill; split_at <= total - min_fill;
         ++split_at) {
      const geom::Rect& l = prefix[split_at - 1];
      const geom::Rect& r = suffix[split_at];
      const double margin = l.Perimeter() + r.Perimeter();
      const double overlap = OverlapArea(l, r);
      const double area = l.Area() + r.Area();
      margin_sum += margin;
      if (overlap < axis_best.overlap ||
          (overlap == axis_best.overlap && area < axis_best.area)) {
        axis_best = Candidate{axis, split_at, margin, overlap, area};
      }
    }
    best_axis_margin[axis] = margin_sum;
    best_per_axis[axis] = axis_best;
  }

  const int axis = best_axis_margin[0] <= best_axis_margin[1] ? 0 : 1;
  const Candidate chosen = best_per_axis[axis];

  std::vector<Entry> sorted = std::move(entries);
  sort_by_axis(&sorted, axis);
  left->assign(sorted.begin(), sorted.begin() + chosen.split_at);
  right->assign(sorted.begin() + chosen.split_at, sorted.end());
}

/// Chooses the branch of `node` to descend into for inserting `p`: parents
/// of leaves minimize overlap enlargement (R*), higher levels minimize area
/// enlargement; ties by smaller area.
size_t ChooseSubtree(const Node& node, const geom::Point& p) {
  size_t best = 0;
  if (node.level == 1) {
    double best_overlap_delta = std::numeric_limits<double>::infinity();
    double best_area_delta = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < node.branches.size(); ++i) {
      geom::Rect enlarged = node.branches[i].mbr;
      enlarged.Expand(p);
      double overlap_before = 0.0;
      double overlap_after = 0.0;
      for (size_t j = 0; j < node.branches.size(); ++j) {
        if (j == i) continue;
        overlap_before +=
            OverlapArea(node.branches[i].mbr, node.branches[j].mbr);
        overlap_after += OverlapArea(enlarged, node.branches[j].mbr);
      }
      const double overlap_delta = overlap_after - overlap_before;
      const double area_delta = enlarged.Area() - node.branches[i].mbr.Area();
      if (overlap_delta < best_overlap_delta ||
          (overlap_delta == best_overlap_delta &&
           area_delta < best_area_delta)) {
        best_overlap_delta = overlap_delta;
        best_area_delta = area_delta;
        best = i;
      }
    }
  } else {
    double best_area_delta = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < node.branches.size(); ++i) {
      geom::Rect enlarged = node.branches[i].mbr;
      enlarged.Expand(p);
      const double area = node.branches[i].mbr.Area();
      const double area_delta = enlarged.Area() - area;
      if (area_delta < best_area_delta ||
          (area_delta == best_area_delta && area < best_area)) {
        best_area_delta = area_delta;
        best_area = area;
        best = i;
      }
    }
  }
  return best;
}

}  // namespace

RTree::RTree(storage::Pager* pager, const RTreeOptions& options)
    : options_(options),
      pool_(std::make_unique<storage::BufferPool>(
          pager, std::max<size_t>(1, options.buffer_pool_pages),
          options.concurrent_reads)) {}

Result<std::unique_ptr<RTree>> RTree::Create(storage::Pager* pager,
                                             const RTreeOptions& options) {
  if (pager == nullptr) return Status::InvalidArgument("pager is null");
  if (pager->page_size() != options.page_size) {
    return Status::InvalidArgument("pager/page size mismatch");
  }
  if (LeafCapacity(options.page_size) < 4 ||
      BranchCapacity(options.page_size) < 4) {
    return Status::InvalidArgument("page size too small for an R-tree node");
  }
  if (options.min_fill <= 0.0 || options.min_fill > 0.5) {
    return Status::InvalidArgument("min_fill must be in (0, 0.5]");
  }
  std::unique_ptr<RTree> tree(new RTree(pager, options));
  tree->root_ = tree->pool_->Allocate();
  Node root;
  root.level = 0;
  SPACETWIST_RETURN_NOT_OK(tree->WriteNode(tree->root_, root));
  return tree;
}

std::unique_ptr<RTree> RTree::AdoptForBulkLoad(storage::Pager* pager,
                                               const RTreeOptions& options,
                                               storage::PageId root,
                                               int height, uint64_t size) {
  std::unique_ptr<RTree> tree(new RTree(pager, options));
  tree->root_ = root;
  tree->height_ = height;
  tree->size_ = size;
  return tree;
}

Status RTree::ReadNode(storage::PageId id, Node* node, bool* missed) {
  SPACETWIST_ASSIGN_OR_RETURN(storage::BufferPool::PageHandle page,
                              pool_->Fetch(id, missed));
  return DeserializeNode(*page, node);
}

Status RTree::WriteNode(storage::PageId id, const Node& node) {
  storage::Page page(options_.page_size);
  SPACETWIST_RETURN_NOT_OK(SerializeNode(node, &page));
  return pool_->Write(id, page);
}

size_t RTree::MinLeafFill() const {
  return std::max<size_t>(
      1, static_cast<size_t>(std::floor(leaf_capacity() * options_.min_fill)));
}

size_t RTree::MinBranchFill() const {
  return std::max<size_t>(
      1,
      static_cast<size_t>(std::floor(branch_capacity() * options_.min_fill)));
}

/// Result of a recursive insert: the subtree's refreshed MBR and, when the
/// child overflowed and split, the entry for the new sibling.
struct RTree::InsertOutcome {
  geom::Rect mbr;
  std::optional<BranchEntry> split;
};

Result<RTree::InsertOutcome> RTree::InsertIntoSubtree(storage::PageId node_id,
                                                      const DataPoint& p) {
  Node node;
  SPACETWIST_RETURN_NOT_OK(ReadNode(node_id, &node));

  if (node.IsLeaf()) {
    node.points.push_back(p);
    if (node.points.size() <= leaf_capacity()) {
      SPACETWIST_RETURN_NOT_OK(WriteNode(node_id, node));
      return InsertOutcome{node.ComputeMbr(), std::nullopt};
    }
    Node left, right;
    left.level = right.level = 0;
    RStarSplit(std::move(node.points), MinLeafFill(), &left.points,
               &right.points);
    const storage::PageId right_id = pool_->Allocate();
    SPACETWIST_RETURN_NOT_OK(WriteNode(node_id, left));
    SPACETWIST_RETURN_NOT_OK(WriteNode(right_id, right));
    return InsertOutcome{left.ComputeMbr(),
                         BranchEntry{right.ComputeMbr(), right_id}};
  }

  const size_t best = ChooseSubtree(node, p.point);

  SPACETWIST_ASSIGN_OR_RETURN(InsertOutcome child_out,
                              InsertIntoSubtree(node.branches[best].child, p));
  node.branches[best].mbr = child_out.mbr;
  if (child_out.split.has_value()) node.branches.push_back(*child_out.split);

  if (node.branches.size() <= branch_capacity()) {
    SPACETWIST_RETURN_NOT_OK(WriteNode(node_id, node));
    return InsertOutcome{node.ComputeMbr(), std::nullopt};
  }
  Node left, right;
  left.level = right.level = node.level;
  RStarSplit(std::move(node.branches), MinBranchFill(), &left.branches,
             &right.branches);
  const storage::PageId right_id = pool_->Allocate();
  SPACETWIST_RETURN_NOT_OK(WriteNode(node_id, left));
  SPACETWIST_RETURN_NOT_OK(WriteNode(right_id, right));
  return InsertOutcome{left.ComputeMbr(),
                       BranchEntry{right.ComputeMbr(), right_id}};
}

Status RTree::Insert(const DataPoint& p) {
  SPACETWIST_ASSIGN_OR_RETURN(InsertOutcome out, InsertIntoSubtree(root_, p));
  if (out.split.has_value()) {
    // Root overflowed: grow the tree by one level.
    Node new_root;
    new_root.level = height_;
    new_root.branches.push_back(BranchEntry{out.mbr, root_});
    new_root.branches.push_back(*out.split);
    const storage::PageId new_root_id = pool_->Allocate();
    SPACETWIST_RETURN_NOT_OK(WriteNode(new_root_id, new_root));
    root_ = new_root_id;
    ++height_;
  }
  ++size_;
  return Status::OK();
}

Status RTree::CollectSubtreePoints(storage::PageId node_id,
                                   std::vector<DataPoint>* out) {
  Node node;
  SPACETWIST_RETURN_NOT_OK(ReadNode(node_id, &node));
  if (node.IsLeaf()) {
    out->insert(out->end(), node.points.begin(), node.points.end());
    return Status::OK();
  }
  for (const BranchEntry& b : node.branches) {
    SPACETWIST_RETURN_NOT_OK(CollectSubtreePoints(b.child, out));
  }
  return Status::OK();
}

/// Result of a recursive delete: whether the entry was found, the subtree's
/// refreshed MBR, and whether the parent should drop the child (underflow;
/// its points went to the orphans for reinsertion).
struct RTree::DeleteOutcome {
  bool found = false;
  geom::Rect mbr;
  bool drop_child = false;
};

Result<RTree::DeleteOutcome> RTree::DeleteFromSubtree(
    storage::PageId node_id, const DataPoint& p,
    std::vector<DataPoint>* orphans) {
  Node node;
  SPACETWIST_RETURN_NOT_OK(ReadNode(node_id, &node));
  const bool is_root = node_id == root_;

  if (node.IsLeaf()) {
    auto it = std::find(node.points.begin(), node.points.end(), p);
    if (it == node.points.end()) {
      return DeleteOutcome{false, node.ComputeMbr(), false};
    }
    node.points.erase(it);
    if (!is_root && node.points.size() < MinLeafFill()) {
      // Condense: dissolve this leaf, reinsert its remaining points.
      orphans->insert(orphans->end(), node.points.begin(), node.points.end());
      return DeleteOutcome{true, geom::Rect::Empty(), true};
    }
    SPACETWIST_RETURN_NOT_OK(WriteNode(node_id, node));
    return DeleteOutcome{true, node.ComputeMbr(), false};
  }

  for (size_t i = 0; i < node.branches.size(); ++i) {
    if (!node.branches[i].mbr.Contains(p.point)) continue;
    SPACETWIST_ASSIGN_OR_RETURN(
        DeleteOutcome child_out,
        DeleteFromSubtree(node.branches[i].child, p, orphans));
    if (!child_out.found) continue;
    if (child_out.drop_child) {
      node.branches.erase(node.branches.begin() + i);
    } else {
      node.branches[i].mbr = child_out.mbr;
    }
    if (!is_root && node.branches.size() < MinBranchFill()) {
      // Condense the whole subtree into point orphans for reinsertion.
      for (const BranchEntry& b : node.branches) {
        SPACETWIST_RETURN_NOT_OK(CollectSubtreePoints(b.child, orphans));
      }
      return DeleteOutcome{true, geom::Rect::Empty(), true};
    }
    SPACETWIST_RETURN_NOT_OK(WriteNode(node_id, node));
    return DeleteOutcome{true, node.ComputeMbr(), false};
  }
  return DeleteOutcome{false, node.ComputeMbr(), false};
}

Result<bool> RTree::Delete(const DataPoint& p) {
  std::vector<DataPoint> orphans;
  SPACETWIST_ASSIGN_OR_RETURN(DeleteOutcome out,
                              DeleteFromSubtree(root_, p, &orphans));
  if (!out.found) return false;
  SPACETWIST_CHECK(!out.drop_child) << "root must never report underflow";

  size_ -= 1 + orphans.size();

  // Shrink the root while it is a branch with a single child.
  while (height_ > 1) {
    Node root_node;
    SPACETWIST_RETURN_NOT_OK(ReadNode(root_, &root_node));
    if (root_node.IsLeaf() || root_node.branches.size() != 1) break;
    root_ = root_node.branches[0].child;
    --height_;
  }
  // A branch root can end up empty when its last child underflowed away;
  // reset to an empty leaf in that case.
  {
    Node root_node;
    SPACETWIST_RETURN_NOT_OK(ReadNode(root_, &root_node));
    if (!root_node.IsLeaf() && root_node.branches.empty()) {
      Node empty;
      empty.level = 0;
      SPACETWIST_RETURN_NOT_OK(WriteNode(root_, empty));
      height_ = 1;
    }
  }

  for (const DataPoint& orphan : orphans) {
    SPACETWIST_RETURN_NOT_OK(Insert(orphan));
  }
  return true;
}

Status RTree::RangeQuery(const geom::Rect& window,
                         std::vector<DataPoint>* out) {
  Node node;
  std::vector<storage::PageId> stack = {root_};
  while (!stack.empty()) {
    const storage::PageId id = stack.back();
    stack.pop_back();
    SPACETWIST_RETURN_NOT_OK(ReadNode(id, &node));
    if (node.IsLeaf()) {
      for (const DataPoint& p : node.points) {
        if (window.Contains(p.point)) out->push_back(p);
      }
    } else {
      for (const BranchEntry& b : node.branches) {
        if (window.Intersects(b.mbr)) stack.push_back(b.child);
      }
    }
  }
  return Status::OK();
}

Result<std::vector<Neighbor>> RTree::KnnQuery(const geom::Point& q,
                                              size_t k) {
  InnCursor cursor(this, q);
  std::vector<Neighbor> result;
  result.reserve(k);
  while (result.size() < k) {
    Result<Neighbor> next = cursor.Next();
    if (!next.ok()) {
      if (next.status().IsExhausted()) break;
      return next.status();
    }
    result.push_back(*next);
  }
  return result;
}

Status RTree::Validate() {
  uint64_t points_seen = 0;
  SPACETWIST_RETURN_NOT_OK(ValidateSubtree(root_, height_ - 1,
                                           geom::Rect::Empty(), true,
                                           &points_seen));
  if (points_seen != size_) {
    return Status::Corruption(StrFormat(
        "tree holds %llu points but size() reports %llu",
        static_cast<unsigned long long>(points_seen),
        static_cast<unsigned long long>(size_)));
  }
  return Status::OK();
}

Status RTree::ValidateSubtree(storage::PageId node_id, int expected_level,
                              const geom::Rect& parent_mbr, bool is_root,
                              uint64_t* points_seen) {
  Node node;
  SPACETWIST_RETURN_NOT_OK(ReadNode(node_id, &node));
  if (node.level != expected_level) {
    return Status::Corruption(StrFormat("node level %d, expected %d",
                                        node.level, expected_level));
  }
  if (!is_root) {
    // Bulk loading may leave trailing nodes below the insert-path fill
    // factor, so only emptiness is a structural violation here.
    if (node.Count() < 1) {
      return Status::Corruption("empty non-root node");
    }
    const geom::Rect mbr = node.ComputeMbr();
    if (!parent_mbr.Contains(mbr)) {
      return Status::Corruption("parent MBR does not contain child MBR");
    }
  } else if (!node.IsLeaf() && node.Count() < 2) {
    return Status::Corruption("branch root with fewer than 2 children");
  }
  if (node.IsLeaf()) {
    *points_seen += node.points.size();
    return Status::OK();
  }
  for (const BranchEntry& b : node.branches) {
    SPACETWIST_RETURN_NOT_OK(ValidateSubtree(b.child, expected_level - 1,
                                             b.mbr, false, points_seen));
  }
  return Status::OK();
}

}  // namespace spacetwist::rtree
