// MPSC flow-group handoff ring between shards.
//
// When the scale-out pipeline re-steers an RSS indirection slot (migration or
// failover), the packet state of that slot — replay cursor and unserved
// quota — must move from the donating shard to the adopting shard without
// breaking per-flow ordering. The channel for that is one ring per shard,
// built directly on the ebpf/ringbuf reserve/submit contract: any shard (or
// the controller) may donate into a shard's ring (multi-producer, serialized
// by the ring's producer lock), and exactly one consumer drains it — the
// owning shard while it lives, the migration controller after it retires.
//
// The descriptor is a packet-batch descriptor, not packets: 32 bytes naming
// the slot, the donor, whether the slot came from a failed shard, the
// position within the slot's sub-trace, and the packet budget still owed.
// Ordering proof sketch (DESIGN.md §11): the donor stops processing the slot
// before Submit (release), the adopter starts after Consume observes the
// completed record (acquire), so every packet of the flow-group processed by
// the adopter happens-after every packet processed by the donor — per-flow
// order is a chain of these handoffs.
//
// Full-ring behaviour follows the ringbuf's overwrite-never discipline:
// Donate returns false (and the ring counts a dropped event), the donor
// keeps the slot and keeps serving it — donation retries at the next burst
// boundary. Nothing is lost; the re-steer is merely delayed.
#ifndef ENETSTL_PKTGEN_HANDOFF_RING_H_
#define ENETSTL_PKTGEN_HANDOFF_RING_H_

#include <functional>

#include "ebpf/ringbuf.h"
#include "ebpf/types.h"

namespace pktgen {

using ebpf::u16;
using ebpf::u32;
using ebpf::u64;

// Flow-group (indirection-slot) handoff descriptor.
struct SlotHandoff {
  u32 slot = 0;       // RSS indirection slot being donated
  u16 donor = 0;      // donating shard's cpu (< kNumPossibleCpus)
  // Set once a dying shard donated the slot and kept through every later
  // re-steer: packets served from it count as degraded.
  bool failover = false;
  u64 cursor = 0;     // replay position within the slot's sub-trace
  u64 remaining = 0;  // unserved packet quota owed by the slot
  u64 generation = 0; // steering generation the donor observed when donating
};
static_assert(sizeof(SlotHandoff) == 32,
              "SlotHandoff is a flat 32-byte batch descriptor");

class HandoffRing {
 public:
  // `size_bytes` is rounded up by the ringbuf (min one page = 102 pending
  // descriptors, plenty: a shard owns at most 128 slots).
  explicit HandoffRing(u32 size_bytes) : ring_(size_bytes) {}

  HandoffRing(const HandoffRing&) = delete;
  HandoffRing& operator=(const HandoffRing&) = delete;

  // Donates one flow-group via reserve/copy/submit. Returns false when the
  // ring is full (the ring counts the dropped event); the caller keeps the
  // slot and retries at its next burst boundary.
  bool Donate(const SlotHandoff& handoff);

  // Drains every completed descriptor in donation order. Single consumer at
  // a time (owning shard while alive, controller after it retires — the
  // retirement flag hands the consumer role over with release/acquire).
  // Returns descriptors delivered.
  std::size_t Drain(const std::function<void(const SlotHandoff&)>& fn);

  // True when a descriptor may be waiting (one acquire load pair; the
  // idle-loop poll).
  bool HasPending() const { return ring_.AvailData() != 0; }

  u64 delivered() const { return delivered_; }
  u64 full_rejections() const { return ring_.dropped_events(); }

 private:
  ebpf::RingbufMap ring_;
  u64 delivered_ = 0;  // only the (single) consumer mutates
};

}  // namespace pktgen

#endif  // ENETSTL_PKTGEN_HANDOFF_RING_H_
