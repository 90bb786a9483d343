#include "rtree/node.h"

#include "common/strings.h"

namespace spacetwist::rtree {

geom::Rect Node::ComputeMbr() const {
  geom::Rect mbr = geom::Rect::Empty();
  if (IsLeaf()) {
    for (const DataPoint& p : points) mbr.Expand(p.point);
  } else {
    for (const BranchEntry& b : branches) mbr.Expand(b.mbr);
  }
  return mbr;
}

Status SerializeNode(const Node& node, storage::Page* page) {
  const size_t cap = node.IsLeaf() ? LeafCapacity(page->size())
                                   : BranchCapacity(page->size());
  if (node.Count() > cap) {
    return Status::InvalidArgument(
        StrFormat("node with %zu entries exceeds capacity %zu", node.Count(),
                  cap));
  }
  if (node.level < 0 || node.level > 255) {
    return Status::InvalidArgument("node level out of range");
  }
  page->Zero();
  page->PutU8(0, static_cast<uint8_t>(node.level));
  page->PutU8(1, 0);
  page->PutU16(2, static_cast<uint16_t>(node.Count()));
  size_t off = kNodeHeaderSize;
  if (node.IsLeaf()) {
    for (const DataPoint& p : node.points) {
      page->PutF32(off, static_cast<float>(p.point.x));
      page->PutF32(off + 4, static_cast<float>(p.point.y));
      page->PutU32(off + 8, p.id);
      off += kLeafEntrySize;
    }
  } else {
    for (const BranchEntry& b : node.branches) {
      page->PutF32(off, static_cast<float>(b.mbr.min.x));
      page->PutF32(off + 4, static_cast<float>(b.mbr.min.y));
      page->PutF32(off + 8, static_cast<float>(b.mbr.max.x));
      page->PutF32(off + 12, static_cast<float>(b.mbr.max.y));
      page->PutU32(off + 16, b.child);
      off += kBranchEntrySize;
    }
  }
  return Status::OK();
}

Status ReadNodeHeader(const storage::Page& page, int* level, size_t* count) {
  *level = page.GetU8(0);
  *count = page.GetU16(2);
  const size_t cap =
      *level == 0 ? LeafCapacity(page.size()) : BranchCapacity(page.size());
  if (*count > cap) {
    return Status::Corruption(
        StrFormat("node claims %zu entries, capacity is %zu", *count, cap));
  }
  return Status::OK();
}

void DecodeLeafEntries(const storage::Page& page, size_t count, float* xs,
                       float* ys, uint32_t* ids) {
  size_t off = kNodeHeaderSize;
  for (size_t i = 0; i < count; ++i, off += kLeafEntrySize) {
    xs[i] = page.GetF32(off);
    ys[i] = page.GetF32(off + 4);
    ids[i] = page.GetU32(off + 8);
  }
}

Status DeserializeNode(const storage::Page& page, Node* node) {
  size_t count = 0;
  SPACETWIST_RETURN_NOT_OK(ReadNodeHeader(page, &node->level, &count));
  node->points.clear();
  node->branches.clear();
  size_t off = kNodeHeaderSize;
  if (node->IsLeaf()) {
    node->points.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      DataPoint p;
      p.point.x = page.GetF32(off);
      p.point.y = page.GetF32(off + 4);
      p.id = page.GetU32(off + 8);
      node->points.push_back(p);
      off += kLeafEntrySize;
    }
  } else {
    node->branches.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      BranchEntry b;
      b.mbr.min.x = page.GetF32(off);
      b.mbr.min.y = page.GetF32(off + 4);
      b.mbr.max.x = page.GetF32(off + 8);
      b.mbr.max.y = page.GetF32(off + 12);
      b.child = page.GetU32(off + 16);
      node->branches.push_back(b);
      off += kBranchEntrySize;
    }
  }
  return Status::OK();
}

}  // namespace spacetwist::rtree
