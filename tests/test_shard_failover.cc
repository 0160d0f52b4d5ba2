// Shard-failover tests: RSS steering and the least-loaded failover
// placement, exact accounting when a worker dies mid-measurement of a static
// RSS run, and the end-to-end acceptance run — a million-packet sharded
// measurement over pre-populated cuckoo switches with a seeded worker kill,
// finishing with exact counters and every pre-fault key still resolvable.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/fault_injector.h"
#include "nf/cuckoo_switch.h"
#include "pktgen/flow_migration.h"
#include "pktgen/flowgen.h"
#include "pktgen/sharded_pipeline.h"

namespace pktgen {
namespace {

using enetstl::FaultInjector;

// Static RSS: the indirection table moves only when a worker dies.
constexpr MigrationPolicy kStaticRss{.enabled = false};

// The injector is process-global and gtest runs every test in one process:
// each test starts and ends disarmed.
class ShardFailover : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }

  static ShardedPipeline::ProgramFactory VerdictFactory(
      ebpf::XdpAction verdict) {
    return [verdict](u32) -> ShardedPipeline::ShardProgram {
      return {[verdict](ebpf::XdpContext*, u32 count,
                        ebpf::XdpAction* verdicts) {
                for (u32 i = 0; i < count; ++i) {
                  verdicts[i] = verdict;
                }
              },
              nullptr};
    };
  }
};

TEST(RssIndirection, BuildIsRoundRobinOverQueues) {
  const auto table = BuildRssIndirection(3);
  ASSERT_EQ(table.size(), static_cast<std::size_t>(kRssIndirectionSize));
  for (u32 i = 0; i < kRssIndirectionSize; ++i) {
    EXPECT_EQ(table[i], i % 3u);
  }
  // Degenerate queue counts still produce a full, in-range table.
  for (const u32 q : BuildRssIndirection(0)) {
    EXPECT_EQ(q, 0u);
  }
  for (const u32 q : BuildRssIndirection(1)) {
    EXPECT_EQ(q, 0u);
  }
}

TEST(RssIndirection, LeastLoadedQueueWins) {
  // Queue 1 is dead: its zero load must not attract anything.
  EXPECT_EQ(ChooseLeastLoadedQueue({true, false, true, true},
                                   {1000, 0, 10, 500}),
            2u);
  EXPECT_EQ(ChooseLeastLoadedQueue({true, true, true}, {30, 20, 10}), 2u);
}

TEST(RssIndirection, LeastLoadedQueueTiesGoToTheLowestIndex) {
  EXPECT_EQ(ChooseLeastLoadedQueue({true, true, true, true}, {5, 5, 5, 5}),
            0u);
  EXPECT_EQ(ChooseLeastLoadedQueue({false, true, true, true}, {0, 7, 7, 9}),
            1u);
  // Missing load entries count as zero load.
  EXPECT_EQ(ChooseLeastLoadedQueue({true, true, true}, {}), 0u);
  EXPECT_EQ(ChooseLeastLoadedQueue({true, true, true}, {4}), 1u);
}

// The engine's failover placement: each orphaned slot goes to the
// least-loaded survivor, whose load then grows by the slot's share.
std::vector<u32> PlaceOrphans(const std::vector<bool>& alive,
                              std::vector<u64> load, u32 orphans, u64 share) {
  std::vector<u32> placed(alive.size(), 0);
  load.resize(alive.size(), 0);
  for (u32 i = 0; i < orphans; ++i) {
    const u32 q = ChooseLeastLoadedQueue(alive, load);
    EXPECT_LT(q, alive.size());
    ++placed[q];
    load[q] += share;
  }
  return placed;
}

TEST(RssIndirection, LeastLoadedQueueSpillsOverOnceItFillsUp) {
  // Queue 1 dies with 32 slots. Queue 2 starts below queue 3 but absorbs
  // slot shares until it crosses it, after which the remaining orphans
  // alternate between the two. Queue 0 is far too loaded to ever absorb
  // anything.
  const auto placed =
      PlaceOrphans({true, false, true, true}, {1000, 200, 10, 60}, 32, 10);
  EXPECT_EQ(placed[0], 0u);
  EXPECT_EQ(placed[1], 0u);
  EXPECT_GT(placed[2], 0u);
  EXPECT_GT(placed[3], 0u);
  EXPECT_GT(placed[2], placed[3]);  // it started lighter
  EXPECT_EQ(placed[2] + placed[3], 32u);
  // Equal starting loads spread the orphans evenly: 11/11/10.
  const auto even = PlaceOrphans({true, false, true, true}, {}, 32, 1);
  EXPECT_EQ(even[0], 11u);
  EXPECT_EQ(even[1], 0u);
  EXPECT_EQ(even[2], 11u);
  EXPECT_EQ(even[3], 10u);
}

TEST(RssIndirection, LeastLoadedQueueSingleSurvivorAbsorbsEverything) {
  const auto placed =
      PlaceOrphans({false, false, true, false}, {500, 400, 100, 300}, 96, 13);
  EXPECT_EQ(placed[2], 96u);
}

TEST(RssIndirection, LeastLoadedQueueWithNoSurvivorReturnsAliveSize) {
  EXPECT_EQ(ChooseLeastLoadedQueue({false, false}, {}), 2u);
  EXPECT_EQ(ChooseLeastLoadedQueue({false, false, false, false},
                                   {100, 200, 300, 400}),
            4u);
  EXPECT_EQ(ChooseLeastLoadedQueue({}, {}), 0u);
}

TEST(RssIndirection, SteeringFollowsTheTable) {
  const auto flows = MakeFlowPopulation(256, 31);
  const auto trace = MakeUniformTrace(flows, 1024, 32);
  const auto initial = BuildRssIndirection(4);
  LiveRssIndirection table(initial);
  // Queue 2 dies: its slots are re-steered the way a dying worker does it.
  const std::vector<bool> alive = {true, true, false, true};
  std::vector<u64> load(4, 0);
  for (u32 s = 0; s < kRssIndirectionSize; ++s) {
    if (table.Owner(s) == 2u) {
      const u32 q = ChooseLeastLoadedQueue(alive, load);
      ASSERT_TRUE(table.Resteer(s, 2, q));
      ++load[q];
    }
  }
  for (const auto& packet : trace) {
    const u32 slot = RssSlotForPacket(packet, kRssIndirectionSize, 7);
    const u32 q = table.Owner(slot);
    EXPECT_LT(q, 4u);
    EXPECT_NE(q, 2u);  // dead queue is unreachable after the re-steer
    EXPECT_EQ(q, table.Owner(RssSlotForPacket(packet, kRssIndirectionSize,
                                              7)));  // deterministic
    if (initial[slot] != 2u) {
      EXPECT_EQ(q, initial[slot]);  // live flows keep their affinity
    }
  }
}

TEST(RssIndirection, UnparseablePacketLandsOnTheSlotZeroQueue) {
  Packet junk{};  // all-zero frame: no EtherType, 5-tuple parse fails
  std::vector<u32> table(kRssIndirectionSize, 3);
  table[0] = 7;
  EXPECT_EQ(table[RssSlotForPacket(junk, kRssIndirectionSize, 9)], 7u);
  EXPECT_EQ(RssSlotForPacket(junk, kRssIndirectionSize, 9), 0u);
  EXPECT_EQ(RssSlotForPacket(junk, 5, 9), 0u);
}

TEST(RssIndirection, NonDividingTableSizesStayInRangeAndDeterministic) {
  const auto flows = MakeFlowPopulation(256, 61);
  const auto trace = MakeUniformTrace(flows, 512, 62);
  // Sizes that do not divide (or are not divided by) the queue count or the
  // canonical 128: steering must stay in range, be deterministic, and reach
  // more than one queue once the table is big enough to alias several slots
  // per queue.
  for (const u32 size : {1u, 3u, 5u, 96u, 100u, 127u}) {
    std::vector<u32> table(size);
    for (u32 i = 0; i < size; ++i) {
      table[i] = i % 4u;
    }
    u32 hits[4] = {0, 0, 0, 0};
    for (const auto& packet : trace) {
      const u32 slot = RssSlotForPacket(packet, size, 7);
      ASSERT_LT(slot, size);
      EXPECT_EQ(slot, RssSlotForPacket(packet, size, 7));
      ++hits[table[slot]];
    }
    if (size >= 96u) {
      for (const u32 h : hits) {
        EXPECT_GT(h, 0u) << "table size " << size;
      }
    }
  }
  // Degenerate sizes collapse to slot 0.
  EXPECT_EQ(RssSlotForPacket(trace[0], 0, 7), 0u);
  EXPECT_EQ(RssSlotForPacket(trace[0], 1, 7), 0u);
}

TEST(RssIndirection, SlotAndQueueSteeringAgree) {
  // The engine splits its trace with RssSlotForPacket and steers slot s to
  // table[s]; the initial table is round-robin, so a packet's queue is its
  // slot modulo the queue count — the identity static-RSS load predictions
  // rely on.
  const auto flows = MakeFlowPopulation(256, 63);
  const auto trace = MakeUniformTrace(flows, 512, 64);
  const auto table = BuildRssIndirection(5);
  for (const auto& packet : trace) {
    const u32 slot = RssSlotForPacket(packet, kRssIndirectionSize, 11);
    EXPECT_EQ(table[slot], slot % 5u);
  }
}

TEST(RssIndirection, SeedChangesTheSteering) {
  const auto flows = MakeFlowPopulation(256, 65);
  const auto table = BuildRssIndirection(8);
  u32 moved = 0;
  for (const auto& flow : flows) {
    const Packet packet = Packet::FromTuple(flow);
    if (table[RssSlotForPacket(packet, kRssIndirectionSize, 7)] !=
        table[RssSlotForPacket(packet, kRssIndirectionSize, 8)]) {
      ++moved;
    }
  }
  // Seed sensitivity: a different seed re-shuffles a healthy fraction of
  // the flows (exact count is hash-dependent; zero would mean the seed is
  // dead weight).
  EXPECT_GT(moved, 64u);
}

TEST_F(ShardFailover, KilledWorkerIsDrainedWithExactAccounting) {
  const auto flows = MakeFlowPopulation(512, 33);
  const auto trace = MakeUniformTrace(flows, 4096, 34);
  ShardedPipeline::Options opts;
  opts.num_workers = 3;
  opts.burst_size = 16;
  opts.warmup_packets = 100;
  opts.measure_packets = 30'000;
  const ShardedPipeline pipeline(opts);

  // Worker 1 dies on its 6th measured burst.
  FaultInjector::Global().ArmOneShot("shard.kill.1", 5);

  const auto result = pipeline.MeasureScaleOut(
      VerdictFactory(ebpf::XdpAction::kPass), trace, kStaticRss);

  EXPECT_EQ(result.failed_workers, 1u);
  ASSERT_EQ(result.shards.size(), 3u);
  EXPECT_TRUE(result.shards[1].failed);
  EXPECT_FALSE(result.shards[0].failed);
  EXPECT_FALSE(result.shards[2].failed);

  // The dead shard served exactly 5 bursts before the kill fired.
  EXPECT_EQ(result.shards[1].stats.packets, 5u * 16u);
  EXPECT_EQ(result.shards[1].stats.degraded, 0u);

  // Its unserved budget was served by the survivors it donated its slots
  // to: the shard counts still sum exactly to measure_packets, and the
  // absorbed packets are surfaced as degraded on the absorbing shards.
  u64 packets = 0, degraded = 0, verdicts_total = 0;
  for (const auto& shard : result.shards) {
    packets += shard.stats.packets;
    degraded += shard.stats.degraded;
    verdicts_total +=
        shard.stats.dropped + shard.stats.passed + shard.stats.aborted;
  }
  EXPECT_EQ(packets, opts.measure_packets);
  EXPECT_EQ(result.total.packets, opts.measure_packets);
  EXPECT_EQ(verdicts_total, opts.measure_packets);
  EXPECT_GT(result.failover_packets, 0u);
  EXPECT_EQ(degraded, result.failover_packets);
  EXPECT_EQ(result.total.degraded, result.failover_packets);
  // The absorbed budget is exactly what the dead worker left unserved.
  u64 primary_served = 0;
  for (const auto& shard : result.shards) {
    primary_served += shard.stats.packets - shard.stats.degraded;
  }
  EXPECT_EQ(result.failover_packets, opts.measure_packets - primary_served);
}

TEST_F(ShardFailover, NoFaultMeansNoFailover) {
  const auto flows = MakeFlowPopulation(128, 35);
  const auto trace = MakeUniformTrace(flows, 1024, 36);
  ShardedPipeline::Options opts;
  opts.num_workers = 2;
  opts.burst_size = 16;
  opts.warmup_packets = 0;
  opts.measure_packets = 10'000;
  const auto result = ShardedPipeline(opts).MeasureScaleOut(
      VerdictFactory(ebpf::XdpAction::kDrop), trace, kStaticRss);
  EXPECT_EQ(result.failed_workers, 0u);
  EXPECT_EQ(result.failover_packets, 0u);
  EXPECT_EQ(result.total.degraded, 0u);
  EXPECT_EQ(result.total.packets, opts.measure_packets);
  for (const auto& shard : result.shards) {
    EXPECT_FALSE(shard.failed);
  }
}

TEST_F(ShardFailover, AllWorkersDeadDropsTheUnservedBudget) {
  const auto flows = MakeFlowPopulation(64, 37);
  const auto trace = MakeUniformTrace(flows, 512, 38);
  ShardedPipeline::Options opts;
  opts.num_workers = 1;
  opts.burst_size = 16;
  opts.warmup_packets = 0;
  opts.measure_packets = 1'000;
  FaultInjector::Global().ArmOneShot("shard.kill.0", 0);  // dies immediately
  const auto result = ShardedPipeline(opts).MeasureScaleOut(
      VerdictFactory(ebpf::XdpAction::kPass), trace, kStaticRss);
  EXPECT_EQ(result.failed_workers, 1u);
  EXPECT_EQ(result.failover_packets, 0u);  // nobody left to fail over to
  EXPECT_EQ(result.total.packets, 0u);     // honest shortfall, no crash
}

// Acceptance: a million-packet sharded run over per-worker cuckoo-switch
// replicas with a seeded mid-run worker kill. Must finish with exact
// counters and every pre-fault key still resolvable on every replica.
TEST_F(ShardFailover, MillionPacketRunSurvivesSeededWorkerKill) {
  constexpr u32 kWorkers = 4;
  constexpr u32 kFlows = 2048;
  const auto flows = MakeFlowPopulation(kFlows, 41);
  const auto trace = MakeUniformTrace(flows, 8192, 42);

  // Each worker owns a full replica of the FIB (the CuckooSwitch deployment
  // shape: the control plane programs every core's table identically).
  std::vector<std::unique_ptr<nf::CuckooSwitchKernel>> replicas;
  nf::CuckooSwitchConfig config;
  config.num_buckets = 1024;
  for (u32 w = 0; w < kWorkers; ++w) {
    replicas.push_back(std::make_unique<nf::CuckooSwitchKernel>(config));
    for (u32 f = 0; f < kFlows; ++f) {
      ASSERT_TRUE(replicas[w]->Insert(flows[f], f + 1));
    }
  }

  ShardedPipeline::Options opts;
  opts.num_workers = kWorkers;
  opts.burst_size = 32;
  opts.warmup_packets = 1'000;
  opts.measure_packets = 1'000'000;
  opts.rss_seed = 43;
  const ShardedPipeline pipeline(opts);

  // Worker 2 dies partway through its measured window.
  FaultInjector::Global().ArmOneShot("shard.kill.2", 100);

  const auto result = pipeline.MeasureScaleOut(
      [&replicas](u32 cpu) -> ShardedPipeline::ShardProgram {
        nf::CuckooSwitchKernel* nf = replicas[cpu].get();
        return {[nf](ebpf::XdpContext* ctxs, u32 count,
                     ebpf::XdpAction* verdicts) {
                  nf->ProcessBurst(ctxs, count, verdicts);
                },
                nullptr};
      },
      trace, kStaticRss);

  // Exact accounting end to end: the kill cost zero packets.
  EXPECT_EQ(result.failed_workers, 1u);
  EXPECT_TRUE(result.shards[2].failed);
  EXPECT_EQ(result.total.packets, 1'000'000u);
  EXPECT_EQ(result.total.dropped + result.total.passed + result.total.aborted,
            1'000'000u);
  // Every flow is in every replica, so nothing may drop or abort.
  EXPECT_EQ(result.total.dropped, 0u);
  EXPECT_EQ(result.total.aborted, 0u);
  EXPECT_GT(result.failover_packets, 0u);
  EXPECT_EQ(result.total.degraded, result.failover_packets);
  u64 shard_sum = 0;
  for (const auto& shard : result.shards) {
    shard_sum += shard.stats.packets;
  }
  EXPECT_EQ(shard_sum, 1'000'000u);

  // Every pre-fault key is still resolvable on every replica (including the
  // dead worker's — its table was abandoned, not corrupted).
  for (u32 w = 0; w < kWorkers; ++w) {
    for (u32 f = 0; f < kFlows; ++f) {
      ASSERT_EQ(replicas[w]->Lookup(flows[f]), std::optional<u64>(f + 1))
          << "replica " << w << " flow " << f;
    }
  }
}

}  // namespace
}  // namespace pktgen
