// Live RSS indirection and migration planning for the scale-out pipeline.
//
// BuildRssIndirection returns the initial table as a plain vector; the
// engine needs it as a LIVE object: the migration controller and dying
// workers rewrite slots while the other workers keep running.
// LiveRssIndirection holds one atomic owner per slot plus a steering generation
// (core/epoch_guard.h SteeringEpoch). Commits are CAS-per-slot — a re-steer
// only succeeds against the owner the controller believed, so a concurrent
// death-donation and a migration round can never both move the same slot —
// and the generation bump (release) is what workers poll once per burst
// boundary (acquire) to learn that an ownership scan is due. The slot STATE
// (cursor, backlog) still moves only through the handoff ring; the table is
// the signal, the ring is the channel, and the ring's release/submit →
// acquire/consume edge is what makes per-flow order a happens-before chain.
//
// PlanMigration is the controller's pure planning step, kept free of engine
// state so its balance policy is unit-testable: greedily move the largest
// flow-group that narrows the hot/cold gap without overshooting (cost(slot)
// <= gap/2), falling back to the smallest group that still strictly shrinks
// the max — the fallback is what un-sticks two elephants hashed onto one
// shard, the exact pathology the Zipf bench exhibits.
#ifndef ENETSTL_PKTGEN_FLOW_MIGRATION_H_
#define ENETSTL_PKTGEN_FLOW_MIGRATION_H_

#include <array>
#include <atomic>
#include <vector>

#include "core/epoch_guard.h"
#include "pktgen/sharded_pipeline.h"

namespace pktgen {

class LiveRssIndirection {
 public:
  // Initial slot -> queue mapping (e.g. BuildRssIndirection(workers)).
  // `initial` is clamped/padded to kRssIndirectionSize.
  explicit LiveRssIndirection(const std::vector<u32>& initial);

  LiveRssIndirection(const LiveRssIndirection&) = delete;
  LiveRssIndirection& operator=(const LiveRssIndirection&) = delete;

  u32 size() const { return kRssIndirectionSize; }

  u32 Owner(u32 slot) const {
    return owner_[slot].load(std::memory_order_acquire);
  }

  // Commits slot `slot` from `from` to `to` and publishes a new steering
  // generation. Fails (false) when the slot's owner is no longer `from` —
  // somebody else re-steered it first; the caller re-reads and re-plans.
  bool Resteer(u32 slot, u32 from, u32 to);

  // Steering generation; bumped (release) by every committed Resteer.
  u64 Generation() const { return epoch_.Read(); }
  // Worker-side boundary poll: true once per published generation.
  bool GenerationChanged(u64& last_seen) const {
    return epoch_.Changed(last_seen);
  }

  std::vector<u32> SnapshotTable() const;

 private:
  std::array<std::atomic<u32>, kRssIndirectionSize> owner_;
  enetstl::SteeringEpoch epoch_;
};

// One migratable flow-group on the hot shard: its slot id and its unserved
// packet backlog.
struct SlotLoad {
  u32 slot = 0;
  u64 backlog = 0;
};

// Plans one migration round from the hottest shard to the coldest. Inputs:
// the hot shard's owned groups, both shards' current estimated completion
// costs (ns), and both shards' per-packet service estimates (ns/pkt, >= 1).
// Returns the slot ids to re-steer, at most `max_slots`. Deterministic.
std::vector<u32> PlanMigration(std::vector<SlotLoad> hot_slots,
                               double hot_cost_ns, double cold_cost_ns,
                               double hot_svc_ns, double cold_svc_ns,
                               u32 max_slots);

// Least-loaded queue among `alive` queues given current load estimates;
// ties go to the lowest index. Returns alive.size() when nothing is alive.
// The one failover placement policy: dying workers and the controller use
// it to re-steer a slot that has no live owner.
u32 ChooseLeastLoadedQueue(const std::vector<bool>& alive,
                           const std::vector<u64>& load);

}  // namespace pktgen

#endif  // ENETSTL_PKTGEN_FLOW_MIGRATION_H_
