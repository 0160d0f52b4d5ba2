// Slab-arena allocation layer for the memory wrapper (§4.2).
//
// The memory wrapper exists because pointer-heavy NFs (skip lists, timing
// wheels) are dominated by cache-miss cost; backing every node with a
// general-purpose heap block undermines that story — same-shape nodes end up
// scattered across the heap and every alloc/free pays a size-class map
// lookup. The arena replaces that with per-shape slabs:
//
//  * Nodes of one shape (same num_outs/num_ins/data_size) come from slabs of
//    contiguous, cache-line-aligned slots, so a skip-list level walk touches
//    a dense working set instead of malloc's scattering.
//  * Every slot is addressed by a 32-bit handle: the high 24 bits select the
//    slab, the low kSlotBits select the slot. Handles are what the wrapper
//    stores intrusively (one u32 per node) — O(1) free with no hash lookup.
//  * Recycling is a LIFO freelist threaded through the free slots' first
//    4 bytes plus a per-slab occupancy bitmap. LIFO keeps the hottest slot
//    first (and makes free-then-realloc of one shape return the same
//    address, which the wrapper's recycling contract requires).
//
// Shapes whose slot would exceed Options::max_slot_bytes are refused
// ({nullptr, kNullHandle}); the caller falls back to its own allocator.
// Exhaustion (slab cap reached, host allocation failure) also returns
// nullptr, preserving the bpf_obj_new-failure semantics the wrapper's
// fault-injection hooks rely on.
#ifndef ENETSTL_CORE_ARENA_H_
#define ENETSTL_CORE_ARENA_H_

#include <atomic>
#include <cstddef>
#include <vector>

#include "ebpf/helper.h"
#include "ebpf/types.h"

namespace enetstl {

using ebpf::s32;
using ebpf::u32;
using ebpf::u64;
using ebpf::u8;

class SlabArena {
 public:
  using Handle = u32;
  static constexpr Handle kNullHandle = 0xffffffffu;
  static constexpr u32 kSlotBits = 8;
  static constexpr u32 kSlotsPerSlab = 1u << kSlotBits;
  static constexpr u32 kSlotMask = kSlotsPerSlab - 1;
  static constexpr u32 kMaxSlabs = (kNullHandle >> kSlotBits);  // handle space
  static constexpr u32 kCacheLineSize = 64;

  struct Options {
    // Largest slot a slab serves; bigger shapes are refused so the caller can
    // fall back to a general-purpose allocator.
    u32 max_slot_bytes = 4096;
    // Cap on the total number of slabs across all shape pools. Bounds arena
    // memory and makes exhaustion testable.
    u32 max_slabs = kMaxSlabs;
    // Target bytes per slab; slabs of large slot classes hold fewer slots
    // (never more than kSlotsPerSlab, the handle encoding limit).
    u32 target_slab_bytes = 64 * 1024;
  };

  struct Allocation {
    void* ptr = nullptr;
    Handle handle = kNullHandle;
  };

  SlabArena() : SlabArena(Options{}) {}
  explicit SlabArena(const Options& options);
  ~SlabArena();
  SlabArena(const SlabArena&) = delete;
  SlabArena& operator=(const SlabArena&) = delete;

  // Whether a block of `bytes` can be served from a slab at all.
  bool Slabbable(std::size_t bytes) const {
    return bytes > 0 && bytes <= options_.max_slot_bytes;
  }

  // Allocates one slot from the pool of `shape_key` (an opaque identity: all
  // allocations sharing a key must share a size). Returns {nullptr,
  // kNullHandle} when the shape is not slabbable or the arena is exhausted.
  // The slot contents are NOT zeroed (the first 4 bytes held freelist state).
  Allocation Allocate(u64 shape_key, std::size_t bytes);

  // Returns the slot to its shape's freelist. Double frees and garbage
  // handles are detected via the occupancy bitmap and ignored.
  void Free(Handle handle);

  // Slot address for a live handle; nullptr for free/garbage handles.
  // Inline: pointer-chasing callers (hash chains, LRU lists, timer
  // delivery) deref on every hop.
  void* Deref(Handle handle) const {
    if (!IsLive(handle)) {
      return nullptr;
    }
    const Slab& slab = slabs_[handle >> kSlotBits];
    return slab.base +
           static_cast<std::size_t>(handle & kSlotMask) * slab.slot_size;
  }

  bool IsLive(Handle handle) const {
    if (handle == kNullHandle) {
      return false;
    }
    const u32 slab_id = handle >> kSlotBits;
    const u32 slot = handle & kSlotMask;
    if (slab_id >= slabs_.size()) {
      return false;
    }
    const Slab& slab = slabs_[slab_id];
    return slot < slab.num_slots &&
           (slab.live[slot >> 6] & (1ull << (slot & 63))) != 0;
  }

  // Invokes fn(void* slot) for every live slot. Each occupancy word is
  // copied before its slots are visited, so the callback MAY free the slot
  // it is currently visiting (teardown walks rely on this); it must not
  // allocate, and must not free any OTHER slot — a not-yet-visited slot
  // freed mid-walk would still be visited from the stale word copy.
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    for (const Slab& slab : slabs_) {
      for (u32 word = 0; word < kLiveWords; ++word) {
        u64 bits = slab.live[word];
        while (bits != 0) {
          const u32 slot = (word << 6) + static_cast<u32>(__builtin_ctzll(bits));
          bits &= bits - 1;
          fn(static_cast<void*>(slab.base +
                                static_cast<std::size_t>(slot) * slab.slot_size));
        }
      }
    }
  }

  // ForEachLive variant that also hands the callback each slot's handle, for
  // intrusive structures that need it to free the visited slot (same
  // concurrent-with-free contract as ForEachLive).
  template <typename Fn>
  void ForEachLiveHandle(Fn&& fn) const {
    for (u32 si = 0; si < static_cast<u32>(slabs_.size()); ++si) {
      const Slab& slab = slabs_[si];
      for (u32 word = 0; word < kLiveWords; ++word) {
        u64 bits = slab.live[word];
        while (bits != 0) {
          const u32 slot = (word << 6) + static_cast<u32>(__builtin_ctzll(bits));
          bits &= bits - 1;
          fn((si << kSlotBits) | slot,
             static_cast<void*>(slab.base +
                                static_cast<std::size_t>(slot) * slab.slot_size));
        }
      }
    }
  }

  u32 live_slots() const { return live_slots_; }
  u32 num_slabs() const { return static_cast<u32>(slabs_.size()); }
  u64 bytes_reserved() const { return bytes_reserved_; }
  const Options& options() const { return options_; }

  // --- Shard ownership (scale-out pipeline) ---
  //
  // The scale-out datapath gives every worker its own arena with the rule
  // that no datapath allocation ever crosses a shard boundary (the slab
  // freelist is unsynchronized by design — sharing it across cores would be
  // both a race and a false-sharing magnet). Binding the arena to its
  // owning simulated CPU makes the rule checkable: every Allocate/Free
  // arriving from a different ebpf::CurrentCpu() bumps cross_shard_ops(),
  // which correctness tests pin at zero.
  void BindOwner(u32 cpu) {
    owner_cpu_ = cpu;
    owner_bound_ = true;
  }
  bool owner_bound() const { return owner_bound_; }
  u32 owner_cpu() const { return owner_cpu_; }
  u64 cross_shard_ops() const {
    return cross_shard_ops_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr u32 kLiveWords = kSlotsPerSlab / 64;

  struct Slab {
    u8* base = nullptr;
    u32 pool = 0;       // owning shape pool (index into pools_)
    u32 slot_size = 0;  // bytes per slot, multiple of kCacheLineSize
    u32 num_slots = 0;  // <= kSlotsPerSlab (large slots fill a slab early)
    u64 live[kLiveWords] = {};
  };

  struct ShapePool {
    u64 key = 0;
    u32 slot_size = 0;
    Handle free_head = kNullHandle;
  };

  // Rounds a byte size up to a whole number of cache lines (also guarantees
  // room for the 4-byte freelist link).
  static u32 SlotSize(std::size_t bytes) {
    return static_cast<u32>((bytes + kCacheLineSize - 1) &
                            ~static_cast<std::size_t>(kCacheLineSize - 1));
  }

  u32 FindOrCreatePool(u64 shape_key, u32 slot_size);
  bool Grow(u32 pool_idx);

  // Ownership-rule probe on the alloc/free path: one branch when unbound.
  // The counter is atomic because a violation is by definition a foreign
  // thread touching this arena concurrently with its owner.
  void NoteShardOp() {
    if (owner_bound_ && ebpf::CurrentCpu() != owner_cpu_) {
      cross_shard_ops_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  Options options_;
  bool owner_bound_ = false;
  u32 owner_cpu_ = 0;
  std::atomic<u64> cross_shard_ops_{0};
  u32 live_slots_ = 0;
  u64 bytes_reserved_ = 0;
  std::vector<Slab> slabs_;
  // Shape pools, scanned linearly: the wrapper produces a handful of shapes
  // (one per skip-list height, one per structure), so a scan with a
  // last-hit cache beats any hashed container on the datapath.
  std::vector<ShapePool> pools_;
  u32 last_pool_ = 0;
};

}  // namespace enetstl

#endif  // ENETSTL_CORE_ARENA_H_
