#include "rtree/rtree.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/strings.h"
#include "rtree/inn_cursor.h"
#include "rtree/tree_ops.h"

namespace spacetwist::rtree {

/// Store adapter handing the shared mutation algorithms (rtree/tree_ops.h)
/// access to this tree's pages. The in-memory serving tree (src/memidx) runs
/// the same templates over its arena — keep the two adapters semantically
/// aligned.
struct RTree::PagedStore {
  RTree* t;

  Status ReadNode(storage::PageId id, Node* node) {
    return t->ReadNode(id, node);
  }
  Status WriteNode(storage::PageId id, const Node& node) {
    return t->WriteNode(id, node);
  }
  storage::PageId Allocate() { return t->pool_->Allocate(); }
  size_t leaf_capacity() const { return t->leaf_capacity(); }
  size_t branch_capacity() const { return t->branch_capacity(); }
  size_t min_leaf_fill() const { return t->MinLeafFill(); }
  size_t min_branch_fill() const { return t->MinBranchFill(); }
  storage::PageId root() const { return t->root_; }
  void set_root(storage::PageId id) { t->root_ = id; }
  int height() const { return t->height_; }
  void set_height(int h) { t->height_ = h; }
  uint64_t size() const { return t->size_; }
  void set_size(uint64_t s) { t->size_ = s; }
};

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

Status RTree::Insert(const DataPoint& p) {
  PagedStore store{this};
  return InsertPoint(&store, p);
}

Result<bool> RTree::Delete(const DataPoint& p) {
  PagedStore store{this};
  return DeletePoint(&store, p);
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
