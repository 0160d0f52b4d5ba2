// RSS-sharded multi-core measurement engine.
//
// Models the paper's strongest baselines' real-world deployment shape
// (CuckooSwitch, Katran): the NIC steers each flow to one RX queue with a
// receive-side-scaling hash over the 5-tuple, every queue is served by a
// worker pinned to its own CPU, and each worker runs the burst datapath over
// its queue. Flow affinity is a hard property — a flow's packets are only
// ever processed on one worker at a time, which is what keeps per-shard NF
// state coherent without cross-CPU synchronization.
//
// Steering is a hash of the 5-tuple (CRC32C plus a murmur3 finalizer) onto
// one of kRssIndirectionSize indirection slots, and the slot's table entry
// names the queue — the NIC's Toeplitz hash + indirection table. There is
// one engine, MeasureScaleOut (scale_out.cc): the slot is its work unit.
// With MigrationPolicy::enabled = false the table stays frozen unless a
// worker dies, which is static RSS; with it on, a controller re-steers hot
// slots at run time. A dying worker re-steers its slots to survivors either
// way.
//
// Measurement model: the host may have fewer physical CPUs than simulated
// workers (this harness often runs on a single shared vCPU), so per-shard
// throughput is computed from the worker thread's own CPU time
// (CLOCK_THREAD_CPUTIME_ID), not wall time. That simulates each worker
// owning a dedicated core: the aggregate rate is the sum of per-shard rates,
// and adding workers scales throughput the way added RSS queues do on real
// hardware, independent of host scheduling. Wall time is reported alongside
// for honesty.
#ifndef ENETSTL_PKTGEN_SHARDED_PIPELINE_H_
#define ENETSTL_PKTGEN_SHARDED_PIPELINE_H_

#include <functional>
#include <string>
#include <vector>

#include "pktgen/pipeline.h"

namespace pktgen {

// ---- RSS steering ----------------------------------------------------------
//
// Real NICs steer via hash -> indirection slot -> queue; re-steering (shard
// failover, flow migration) is the host rewriting slots. The engine keeps
// the table live (flow_migration.h LiveRssIndirection), and
// ChooseLeastLoadedQueue places a dead queue's slots on survivors.

// Indirection slot count (128 matches common NIC defaults, e.g. ixgbe).
inline constexpr u32 kRssIndirectionSize = 128;

// Fresh table mapping slot i -> i % num_queues (every queue alive).
std::vector<u32> BuildRssIndirection(u32 num_queues);

// Indirection slot (not queue) a packet hashes to: hash(tuple) % size.
// Unparseable packets land on slot 0 (real NICs steer non-IP traffic to a
// default queue). The engine splits its trace by slot — the slot is the
// migration unit (a flow-group) — and steers slot s to table[s].
u32 RssSlotForPacket(const Packet& packet, u32 table_size, u32 seed);

// ---- Scale-out migration policy ------------------------------------------

// Obs-driven flow-migration controller configuration (MeasureScaleOut).
struct MigrationPolicy {
  // Master switch: false runs the same slot-granular engine with the table
  // frozen (static RSS) — what every static multi-core measurement uses,
  // and the oracle the differential tests compare against.
  bool enabled = true;
  u32 window_us = 200;           // controller poll period
  u32 k_windows = 3;             // consecutive over-threshold windows to act
  double skew_threshold = 1.25;  // max/mean estimated completion cost
  u32 max_slots_per_round = 4;   // re-steers per migration round
  u64 min_window_samples = 32;   // obs samples needed to trust a shard mean
  u32 ring_bytes = 1 << 14;      // per-shard handoff ring capacity
};

struct MigrationStats {
  u64 windows = 0;            // controller windows evaluated
  u64 triggers = 0;           // windows whose skew exceeded the threshold
  u64 rounds = 0;             // migration rounds that re-steered >= 1 slot
  u64 slots_moved = 0;        // successful Resteer commits (controller)
  u64 handoffs = 0;           // flow-group descriptors delivered
  u64 handoff_retries = 0;    // donations deferred by a full ring
  u64 failover_donations = 0; // slots donated by dying workers
  u64 swept_handoffs = 0;     // descriptors the controller re-delivered
                              // from retired shards' rings
  double last_skew = 0.0;     // skew at the controller's final window
  u64 final_generation = 0;   // steering generation at the end of the run
};

class ShardedPipeline {
 public:
  struct Options {
    u32 num_workers = 2;            // clamped to [1, ebpf::kNumPossibleCpus]
    u32 burst_size = 32;            // clamped to [1, kMaxBurstSize]
    u64 warmup_packets = 10'000;    // per worker
    u64 measure_packets = 200'000;  // aggregate across all workers
    u32 rss_seed = 0;
  };

  struct ShardStats {
    u32 cpu = 0;
    u64 queue_depth = 0;        // distinct trace packets steered to this queue
    double busy_seconds = 0.0;  // thread CPU time spent in the measured loop
    // Per-shard counts; pps/ns_per_packet are computed from busy_seconds
    // (dedicated-core model), seconds == busy_seconds. stats.degraded counts
    // the packets this shard served from slots a failed shard donated.
    ThroughputStats stats;
    // This worker tripped its "shard.kill.<cpu>" fault point mid-measurement
    // and was drained; its stats cover only the packets it served pre-fault.
    bool failed = false;
    // Per-stage counters a multi-stage shard program (e.g. an NF chain)
    // exports through its finish hook; empty for plain handlers.
    std::vector<StageStats> stages;
    // Flow-group (indirection-slot) churn on this shard.
    u32 slots_initial = 0;  // slots owned at the start barrier
    u32 slots_adopted = 0;  // slots adopted from handoff descriptors
    u32 slots_donated = 0;  // slots donated away (migration or death)
  };

  struct Result {
    // packets/dropped/passed/aborted are exact sums over shards; pps is the
    // sum of per-shard rates (aggregate dedicated-core throughput); seconds
    // is the wall time of the whole measurement. When failover ran,
    // total.degraded counts packets served by survivors on behalf of failed
    // shards — the per-shard counts still sum exactly to measure_packets.
    ThroughputStats total;
    std::vector<ShardStats> shards;
    double wall_seconds = 0.0;
    // Failover summary: workers that tripped a kill fault, and the packets
    // survivors served from the slots they donated. If every worker fails
    // the unserved budget is dropped and total.packets < measure_packets.
    u32 failed_workers = 0;
    u64 failover_packets = 0;
    // Makespan view of the dedicated-core model: the run completes when its
    // slowest shard does, so the skew-honest aggregate rate is
    // packets / max_w(busy_seconds_w) — the number the scaling matrix and
    // its parallel-efficiency criterion use. total.pps (sum of per-shard
    // rates) is blind to imbalance: an idle shard contributes its full rate.
    double makespan_seconds = 0.0;
    double offered_pps = 0.0;
    // Per-stage counters merged across shards BY STAGE NAME (heterogeneous
    // shard programs keep their counters attributed to the right stage even
    // when stage positions differ between shards).
    std::vector<StageStats> total_stages;
    // Controller and handoff counters (all zero but `windows` on a static,
    // fault-free run).
    MigrationStats migration;
  };

  using BurstHandler =
      std::function<void(ebpf::XdpContext*, u32, ebpf::XdpAction*)>;

  // A shard program: the burst handler plus an optional finish hook, invoked
  // on the coordinating thread after every worker has joined. Multi-stage
  // programs export their per-stage counters into ShardStats::stages there.
  // The factory runs once per worker on the calling thread before the
  // workers start; the handler is invoked only from that worker's thread.
  // Build per-worker NF state there (the RSS model: each core owns its
  // replica or percpu shard) — sharing one non-thread-safe NF across workers
  // is a data race.
  struct ShardProgram {
    BurstHandler handler;
    std::function<void(ShardStats&)> finish;
  };
  using ProgramFactory = std::function<ShardProgram(u32 cpu)>;

  ShardedPipeline() : options_{} {}
  explicit ShardedPipeline(const Options& options);

  // Steers the trace across the workers by indirection slot and replays
  // each owned slot's sub-trace through its worker's handler, then merges
  // per-CPU stats (src/pktgen/scale_out.cc):
  //  * the trace is pre-split into 128 per-slot sub-traces and the
  //    measure_packets budget is divided proportionally to slot depth, so
  //    offered load follows the flow split and the per-shard counts sum
  //    exactly to measure_packets;
  //  * slot ownership is a live indirection table (flow_migration.h). With
  //    `policy.enabled`, an obs-driven controller watches the per-shard
  //    "shard/<cpu>" latency histograms plus per-slot backlog and re-steers
  //    the hottest shard's slots to the coldest after `policy.k_windows`
  //    consecutive windows over `policy.skew_threshold`;
  //  * re-steered slot state moves through per-shard MPSC handoff rings at
  //    burst boundaries (handoff_ring.h) — per-flow order is preserved
  //    across every re-steer;
  //  * failover: every worker probes its "shard.kill.<cpu>" fault point once
  //    per burst; a worker whose point fires donates its slots to the
  //    least-loaded survivors the same way, so migration and failover
  //    compose, and survivors count the packets they serve from those slots
  //    as degraded;
  //  * each worker binds its own SlabArena for all datapath bookkeeping
  //    (slot run-lists), so no allocation crosses a shard boundary.
  //
  // `policy.enabled = false` freezes the table (except for failover): the
  // engine then IS static RSS, which the differential tests use as the
  // oracle.
  Result MeasureScaleOut(const ProgramFactory& factory, const Trace& trace,
                         const MigrationPolicy& policy) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

// Aggregates per-shard stage breakdowns by stage NAME, preserving first-seen
// order. Merging by name (not index) keeps counters correctly attributed
// when shard programs are heterogeneous — e.g. shards running chains whose
// stage positions differ.
std::vector<StageStats> MergeStageBreakdowns(
    const std::vector<ShardedPipeline::ShardStats>& shards);

}  // namespace pktgen

#endif  // ENETSTL_PKTGEN_SHARDED_PIPELINE_H_
