#include "core/arena.h"

#include <cstring>
#include <new>

namespace enetstl {

SlabArena::SlabArena(const Options& options) : options_(options) {
  if (options_.max_slabs > kMaxSlabs) {
    options_.max_slabs = kMaxSlabs;
  }
  if (options_.target_slab_bytes < kCacheLineSize) {
    options_.target_slab_bytes = kCacheLineSize;
  }
}

SlabArena::~SlabArena() {
  for (Slab& slab : slabs_) {
    ::operator delete(slab.base, std::align_val_t{kCacheLineSize});
  }
}

u32 SlabArena::FindOrCreatePool(u64 shape_key, u32 slot_size) {
  if (last_pool_ < pools_.size() && pools_[last_pool_].key == shape_key &&
      pools_[last_pool_].slot_size == slot_size) {
    return last_pool_;
  }
  for (u32 i = 0; i < pools_.size(); ++i) {
    if (pools_[i].key == shape_key && pools_[i].slot_size == slot_size) {
      last_pool_ = i;
      return i;
    }
  }
  pools_.push_back(ShapePool{shape_key, slot_size, kNullHandle});
  last_pool_ = static_cast<u32>(pools_.size()) - 1;
  return last_pool_;
}

bool SlabArena::Grow(u32 pool_idx) {
  if (slabs_.size() >= options_.max_slabs) {
    return false;
  }
  ShapePool& pool = pools_[pool_idx];
  u32 num_slots = options_.target_slab_bytes / pool.slot_size;
  if (num_slots == 0) {
    num_slots = 1;
  }
  if (num_slots > kSlotsPerSlab) {
    num_slots = kSlotsPerSlab;
  }
  const std::size_t bytes =
      static_cast<std::size_t>(num_slots) * pool.slot_size;
  u8* base = static_cast<u8*>(::operator new(
      bytes, std::align_val_t{kCacheLineSize}, std::nothrow));
  if (base == nullptr) {
    return false;
  }
  const u32 slab_id = static_cast<u32>(slabs_.size());
  Slab slab;
  slab.base = base;
  slab.pool = pool_idx;
  slab.slot_size = pool.slot_size;
  slab.num_slots = num_slots;
  slabs_.push_back(slab);
  // Thread the new slots onto the freelist back-to-front so allocation
  // consumes the slab base-upward (sequential first touch).
  for (u32 s = num_slots; s-- > 0;) {
    u8* slot = base + static_cast<std::size_t>(s) * pool.slot_size;
    std::memcpy(slot, &pool.free_head, sizeof(Handle));
    pool.free_head = (slab_id << kSlotBits) | s;
  }
  bytes_reserved_ += bytes;
  return true;
}

SlabArena::Allocation SlabArena::Allocate(u64 shape_key, std::size_t bytes) {
  NoteShardOp();
  if (!Slabbable(bytes)) {
    return Allocation{};
  }
  const u32 slot_size = SlotSize(bytes);
  const u32 pool_idx = FindOrCreatePool(shape_key, slot_size);
  if (pools_[pool_idx].free_head == kNullHandle && !Grow(pool_idx)) {
    return Allocation{};
  }
  ShapePool& pool = pools_[pool_idx];
  const Handle handle = pool.free_head;
  Slab& slab = slabs_[handle >> kSlotBits];
  const u32 slot = handle & kSlotMask;
  u8* ptr = slab.base + static_cast<std::size_t>(slot) * slab.slot_size;
  std::memcpy(&pool.free_head, ptr, sizeof(Handle));
  slab.live[slot >> 6] |= 1ull << (slot & 63);
  ++live_slots_;
  return Allocation{ptr, handle};
}

void SlabArena::Free(Handle handle) {
  NoteShardOp();
  if (handle == kNullHandle) {
    return;
  }
  const u32 slab_id = handle >> kSlotBits;
  const u32 slot = handle & kSlotMask;
  if (slab_id >= slabs_.size()) {
    return;
  }
  Slab& slab = slabs_[slab_id];
  const u64 bit = 1ull << (slot & 63);
  if (slot >= slab.num_slots || (slab.live[slot >> 6] & bit) == 0) {
    return;  // garbage handle or double free: ignore, freelist stays intact
  }
  slab.live[slot >> 6] &= ~bit;
  ShapePool& pool = pools_[slab.pool];
  u8* ptr = slab.base + static_cast<std::size_t>(slot) * slab.slot_size;
  std::memcpy(ptr, &pool.free_head, sizeof(Handle));
  pool.free_head = handle;
  --live_slots_;
}

}  // namespace enetstl
