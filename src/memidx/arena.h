#ifndef SPACETWIST_MEMIDX_ARENA_H_
#define SPACETWIST_MEMIDX_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace spacetwist::memidx {

/// Fixed-slot block arena in the style of tarantool's matras allocator: node
/// memory is carved out of equal-sized blocks, a slot's address never moves
/// once allocated, and slot ids are dense monotone integers. Slots are never
/// freed individually. MemRTree::CopyOf allocates one slot per page in
/// page-id order, so slot i is page i and the child ids recorded in branch
/// entries address slots directly.
///
/// Not thread safe for allocation; read access to allocated slots is safe
/// from any number of threads once allocation stops.
class Arena {
 public:
  /// `slot_bytes` is rounded up to 8-byte alignment; each block holds
  /// `slots_per_block` slots.
  explicit Arena(size_t slot_bytes, size_t slots_per_block = 1024);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns the next dense slot id, growing by one block when needed. The
  /// slot's memory is zero-initialized.
  uint32_t Allocate();

  void* Slot(uint32_t id) {
    return blocks_[id / slots_per_block_].get() +
           static_cast<size_t>(id % slots_per_block_) * slot_bytes_;
  }
  const void* Slot(uint32_t id) const {
    return blocks_[id / slots_per_block_].get() +
           static_cast<size_t>(id % slots_per_block_) * slot_bytes_;
  }

  size_t slots() const { return slots_; }

 private:
  size_t slot_bytes_;
  size_t slots_per_block_;
  size_t slots_ = 0;
  std::vector<std::unique_ptr<unsigned char[]>> blocks_;
};

}  // namespace spacetwist::memidx

#endif  // SPACETWIST_MEMIDX_ARENA_H_
