#include "memidx/mem_rtree.h"

#include <algorithm>
#include <cstring>

#include "storage/pager.h"

namespace spacetwist::memidx {

namespace {

size_t SlotBytes(size_t page_size) {
  const size_t leaf_bytes =
      rtree::LeafCapacity(page_size) * rtree::kLeafEntrySize;
  const size_t branch_bytes =
      rtree::BranchCapacity(page_size) * rtree::kBranchEntrySize;
  return MemRTree::kPayloadOffset + std::max(leaf_bytes, branch_bytes);
}

}  // namespace

static_assert(sizeof(MemRTree::BranchRecord) == rtree::kBranchEntrySize,
              "BranchRecord must match the on-page branch entry layout");

MemRTree::MemRTree(size_t page_size)
    : leaf_capacity_(rtree::LeafCapacity(page_size)),
      arena_(SlotBytes(page_size)) {}

Result<std::unique_ptr<MemRTree>> MemRTree::CopyOf(const rtree::RTree& tree) {
  storage::Pager* pager = tree.buffer_pool()->pager();
  std::unique_ptr<MemRTree> copy(new MemRTree(pager->page_size()));
  storage::Page page(pager->page_size());
  for (storage::PageId id = 0; id < pager->page_count(); ++id) {
    SPACETWIST_RETURN_NOT_OK(pager->Read(id, &page));
    int level = 0;
    size_t count = 0;
    SPACETWIST_RETURN_NOT_OK(rtree::ReadNodeHeader(page, &level, &count));
    // Allocation is dense and monotone: this is slot `id`.
    const uint32_t slot_id = copy->arena_.Allocate();
    unsigned char* slot =
        static_cast<unsigned char*>(copy->arena_.Slot(slot_id));
    SlotHeader* header = reinterpret_cast<SlotHeader*>(slot);
    header->level = static_cast<uint16_t>(level);
    header->count = static_cast<uint16_t>(count);
    if (level == 0) {
      float* xs = reinterpret_cast<float*>(slot + kPayloadOffset);
      float* ys = xs + copy->leaf_capacity_;
      uint32_t* ids = reinterpret_cast<uint32_t*>(ys + copy->leaf_capacity_);
      rtree::DecodeLeafEntries(page, count, xs, ys, ids);
    } else {
      std::memcpy(slot + kPayloadOffset, page.data() + rtree::kNodeHeaderSize,
                  count * sizeof(BranchRecord));
    }
  }
  copy->root_ = tree.root();
  copy->height_ = tree.height();
  copy->size_ = tree.size();
  return copy;
}

Status MemRTree::ReadNode(storage::PageId id, rtree::Node* node) const {
  if (id >= arena_.slots()) {
    return Status::InvalidArgument("node id past the arena");
  }
  const SlotHeader& header = Header(id);
  node->level = header.level;
  node->points.clear();
  node->branches.clear();
  if (header.level == 0) {
    const LeafView view = Leaf(id);
    node->points.reserve(view.count);
    for (uint32_t i = 0; i < view.count; ++i) {
      node->points.push_back(rtree::DataPoint{
          geom::Point{static_cast<double>(view.xs[i]),
                      static_cast<double>(view.ys[i])},
          view.ids[i]});
    }
  } else {
    const BranchView view = Branch(id);
    node->branches.reserve(view.count);
    for (uint32_t i = 0; i < view.count; ++i) {
      const BranchRecord& e = view.entries[i];
      node->branches.push_back(rtree::BranchEntry{
          geom::Rect{geom::Point{static_cast<double>(e.min_x),
                                 static_cast<double>(e.min_y)},
                     geom::Point{static_cast<double>(e.max_x),
                                 static_cast<double>(e.max_y)}},
          e.child});
    }
  }
  return Status::OK();
}

}  // namespace spacetwist::memidx
