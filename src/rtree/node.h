#ifndef SPACETWIST_RTREE_NODE_H_
#define SPACETWIST_RTREE_NODE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "geom/rect.h"
#include "rtree/entry.h"
#include "storage/page.h"

namespace spacetwist::rtree {

/// On-page layout (little endian):
///   offset 0: u8  level (0 = leaf)
///   offset 1: u8  reserved
///   offset 2: u16 entry count
///   offset 4: entries
/// Leaf entry (12 bytes):  f32 x, f32 y, u32 id
/// Branch entry (20 bytes): f32 min.x, f32 min.y, f32 max.x, f32 max.y,
///                          u32 child page id
inline constexpr size_t kNodeHeaderSize = 4;
inline constexpr size_t kLeafEntrySize = 12;
inline constexpr size_t kBranchEntrySize = 20;

/// Maximum number of entries a leaf / branch node holds for `page_size`.
inline size_t LeafCapacity(size_t page_size) {
  return (page_size - kNodeHeaderSize) / kLeafEntrySize;
}
inline size_t BranchCapacity(size_t page_size) {
  return (page_size - kNodeHeaderSize) / kBranchEntrySize;
}

/// In-memory image of one R-tree node. Exactly one of the two entry vectors
/// is populated, depending on `level`.
struct Node {
  int level = 0;  ///< 0 for leaves; parents of leaves are level 1, etc.
  std::vector<DataPoint> points;      ///< Populated when level == 0.
  std::vector<BranchEntry> branches;  ///< Populated when level > 0.

  bool IsLeaf() const { return level == 0; }
  size_t Count() const { return IsLeaf() ? points.size() : branches.size(); }

  /// Tight MBR over the node's entries (Rect::Empty() for empty nodes).
  geom::Rect ComputeMbr() const;
};

/// Serializes `node` into `page`. Fails if the node exceeds page capacity.
Status SerializeNode(const Node& node, storage::Page* page);

/// Parses `page` into `*node`. Fails on malformed headers.
Status DeserializeNode(const storage::Page& page, Node* node);

/// Reads `page`'s header: the node level, and an entry count within that
/// level's capacity for the page size (kCorruption otherwise, which keeps
/// every entry read inside the page).
Status ReadNodeHeader(const storage::Page& page, int* level, size_t* count);

/// Decodes the first `count` leaf entries of `page` (at most the count
/// ReadNodeHeader checked) into structure-of-arrays float32 coordinates and
/// ids.
void DecodeLeafEntries(const storage::Page& page, size_t count, float* xs,
                       float* ys, uint32_t* ids);

}  // namespace spacetwist::rtree

#endif  // SPACETWIST_RTREE_NODE_H_
