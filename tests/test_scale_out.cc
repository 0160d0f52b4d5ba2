// Scale-out datapath tests: MPSC handoff rings, the live RSS indirection
// table, migration planning, the obs imbalance signal, and the
// MeasureScaleOut engine — including the differential test that proves the
// migrating datapath produces bit-identical per-flow verdict streams to the
// static-RSS oracle, and the composition of migration with seeded worker
// kills. Suite names carry "Handoff"/"Migration" so the sanitizer and TSan
// CI lanes pick them up by regex.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/arena.h"
#include "core/fault_injector.h"
#include "ebpf/helper.h"
#include "obs/imbalance.h"
#include "obs/telemetry.h"
#include "pktgen/flow_migration.h"
#include "pktgen/flowgen.h"
#include "pktgen/handoff_ring.h"
#include "pktgen/sharded_pipeline.h"

namespace pktgen {
namespace {

using enetstl::FaultInjector;

// ---- Handoff ring ---------------------------------------------------------

TEST(HandoffRing, RoundTripsOneDescriptor) {
  HandoffRing ring(1 << 14);
  EXPECT_FALSE(ring.HasPending());
  const SlotHandoff out{.slot = 17,
                        .donor = 2,
                        .failover = true,
                        .cursor = 1234,
                        .remaining = 56,
                        .generation = 9};
  ASSERT_TRUE(ring.Donate(out));
  EXPECT_TRUE(ring.HasPending());
  std::vector<SlotHandoff> got;
  EXPECT_EQ(ring.Drain([&got](const SlotHandoff& h) { got.push_back(h); }),
            1u);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].slot, 17u);
  EXPECT_EQ(got[0].donor, 2u);
  EXPECT_TRUE(got[0].failover);
  EXPECT_EQ(got[0].cursor, 1234u);
  EXPECT_EQ(got[0].remaining, 56u);
  EXPECT_EQ(got[0].generation, 9u);
  EXPECT_FALSE(ring.HasPending());
  EXPECT_EQ(ring.delivered(), 1u);
}

TEST(HandoffRing, FullRingRejectsWithoutLosingDeliveredDescriptors) {
  HandoffRing ring(4096);  // kMinSize: fills after a few dozen descriptors
  u64 accepted = 0;
  while (ring.Donate(SlotHandoff{.slot = static_cast<u32>(accepted),
                                 .remaining = accepted + 1})) {
    ++accepted;
    ASSERT_LT(accepted, 4096u);  // must fill eventually
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(ring.full_rejections(), 0u);
  // Everything accepted before the ring filled drains intact and in order.
  u64 seen = 0;
  ring.Drain([&seen](const SlotHandoff& h) {
    EXPECT_EQ(h.slot, seen);
    EXPECT_EQ(h.remaining, seen + 1);
    ++seen;
  });
  EXPECT_EQ(seen, accepted);
  // Space is reclaimed: the ring accepts again after the drain.
  EXPECT_TRUE(ring.Donate(SlotHandoff{
      .slot = 1, .donor = 1, .cursor = 1, .remaining = 1, .generation = 1}));
}

TEST(HandoffRing, MpscDeliversExactlyOnceUnderContention) {
  constexpr u32 kProducers = 4;
  constexpr u32 kPerProducer = 2000;
  HandoffRing ring(1 << 15);
  std::atomic<u64> consumed{0};
  std::set<u64> seen;
  std::atomic<bool> done{false};

  std::thread consumer([&] {
    u64 last_seen_per_donor[kProducers] = {};
    while (!done.load(std::memory_order_acquire) ||
           consumed.load(std::memory_order_relaxed) <
               static_cast<u64>(kProducers) * kPerProducer) {
      ring.Drain([&](const SlotHandoff& h) {
        ASSERT_LT(h.donor, kProducers);
        // Per-producer FIFO: cursor carries the producer-local sequence.
        EXPECT_EQ(h.cursor, last_seen_per_donor[h.donor]);
        last_seen_per_donor[h.donor] = h.cursor + 1;
        const u64 key = static_cast<u64>(h.donor) * kPerProducer + h.cursor;
        EXPECT_TRUE(seen.insert(key).second) << "duplicate " << key;
        consumed.fetch_add(1, std::memory_order_relaxed);
      });
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> producers;
  for (u32 p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (u32 i = 0; i < kPerProducer; ++i) {
        const SlotHandoff h{.slot = p % 128u,
                            .donor = static_cast<u16>(p),
                            .cursor = i,
                            .remaining = 1};
        while (!ring.Donate(h)) {
          std::this_thread::yield();  // full: retry, never drop
        }
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  done.store(true, std::memory_order_release);
  consumer.join();

  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kProducers) * kPerProducer);
  EXPECT_EQ(ring.delivered(), static_cast<u64>(kProducers) * kPerProducer);
}

// ---- Live indirection table -----------------------------------------------

TEST(FlowMigrationTable, ResteerCommitsByCasAndBumpsTheGeneration) {
  LiveRssIndirection table(BuildRssIndirection(4));
  EXPECT_EQ(table.Generation(), 0u);
  EXPECT_EQ(table.Owner(5), 1u);  // round-robin initial layout

  u64 seen = table.Generation();
  EXPECT_FALSE(table.GenerationChanged(seen));

  ASSERT_TRUE(table.Resteer(5, 1, 3));
  EXPECT_EQ(table.Owner(5), 3u);
  EXPECT_EQ(table.Generation(), 1u);
  EXPECT_TRUE(table.GenerationChanged(seen));
  EXPECT_FALSE(table.GenerationChanged(seen));  // edge-triggered

  // Stale `from` loses the race and must not bump the generation.
  EXPECT_FALSE(table.Resteer(5, 1, 2));
  EXPECT_EQ(table.Owner(5), 3u);
  EXPECT_EQ(table.Generation(), 1u);

  // Degenerate requests are rejected.
  EXPECT_FALSE(table.Resteer(5, 3, 3));
  EXPECT_FALSE(table.Resteer(kRssIndirectionSize, 0, 1));

  const auto snapshot = table.SnapshotTable();
  ASSERT_EQ(snapshot.size(), static_cast<std::size_t>(kRssIndirectionSize));
  EXPECT_EQ(snapshot[5], 3u);
  EXPECT_EQ(snapshot[6], 2u);
}

TEST(FlowMigrationTable, ConcurrentResteersCommitExactlyOne) {
  LiveRssIndirection table(BuildRssIndirection(2));
  constexpr u32 kThreads = 8;
  std::atomic<u32> wins{0};
  std::vector<std::thread> threads;
  for (u32 t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, &wins, t] {
      if (table.Resteer(0, 0, 2 + t)) {
        wins.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(wins.load(), 1u);
  EXPECT_GE(table.Owner(0), 2u);
  EXPECT_EQ(table.Generation(), 1u);
}

// ---- Migration planning ---------------------------------------------------

TEST(MigrationPlan, EqualizesWithoutOvershooting) {
  // gap = 160: move 50 (largest <= 80), then 10 (largest <= 30). Moving the
  // 100 at any point would overshoot, so it stays.
  const auto moves = PlanMigration({{10, 100}, {11, 50}, {12, 10}},
                                   /*hot_cost_ns=*/160.0, /*cold_cost_ns=*/0.0,
                                   /*hot_svc_ns=*/1.0, /*cold_svc_ns=*/1.0,
                                   /*max_slots=*/4);
  ASSERT_EQ(moves.size(), 2u);
  EXPECT_EQ(moves[0], 11u);
  EXPECT_EQ(moves[1], 12u);
}

TEST(MigrationPlan, SplitsTwoCollidingElephants) {
  // Two equal elephants on one shard — the Zipf-collision pathology. One
  // (the lower slot id, deterministically) moves; moving both would just
  // swap the imbalance.
  const auto moves =
      PlanMigration({{7, 500}, {40, 500}}, 1000.0, 0.0, 1.0, 1.0, 4);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0], 7u);
}

TEST(MigrationPlan, SingleElephantStaysPut) {
  // One indivisible group: moving it would only relocate the hot spot
  // (cold + addition == hot), so the plan is empty — no ping-pong.
  EXPECT_TRUE(PlanMigration({{3, 100}}, 100.0, 0.0, 1.0, 1.0, 4).empty());
}

TEST(MigrationPlan, FallbackMovesAnElephantToAFasterShard) {
  // The hot shard is 2x slower per packet; even though the single group
  // exceeds half the gap, landing it on the fast shard strictly shrinks the
  // max (200 -> 100), so the fallback branch takes it.
  const auto moves = PlanMigration({{3, 100}}, 200.0, 0.0,
                                   /*hot_svc_ns=*/2.0, /*cold_svc_ns=*/1.0, 4);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0], 3u);
}

TEST(MigrationPlan, RespectsMaxSlotsAndDegenerateInputs) {
  const auto moves = PlanMigration(
      {{0, 8}, {1, 8}, {2, 8}, {3, 8}, {4, 8}, {5, 8}}, 48.0, 0.0, 1.0, 1.0,
      /*max_slots=*/2);
  EXPECT_EQ(moves.size(), 2u);
  EXPECT_TRUE(PlanMigration({{0, 8}}, 8.0, 0.0, 1.0, 1.0, 0).empty());
  EXPECT_TRUE(PlanMigration({}, 100.0, 0.0, 1.0, 1.0, 4).empty());
  // Already balanced: nothing moves.
  EXPECT_TRUE(PlanMigration({{0, 10}}, 10.0, 10.0, 1.0, 1.0, 4).empty());
}

// ---- Imbalance signal -----------------------------------------------------

TEST(MigrationSignal, ComputesSkewAndPicksHotAndCold) {
  const auto sig = obs::ComputeShardImbalance({400.0, 100.0, 100.0, 100.0});
  ASSERT_TRUE(sig.valid);
  EXPECT_NEAR(sig.skew, 400.0 / 175.0, 1e-9);
  EXPECT_EQ(sig.hottest, 0u);
  EXPECT_EQ(sig.coldest, 1u);  // lowest-index minimum
}

TEST(MigrationSignal, PrefersAnIdleShardAsColdest) {
  const auto sig = obs::ComputeShardImbalance({300.0, 0.0, 100.0});
  ASSERT_TRUE(sig.valid);
  EXPECT_EQ(sig.hottest, 0u);
  EXPECT_EQ(sig.coldest, 1u);  // idle beats merely-cold
}

TEST(MigrationSignal, DegenerateInputsAreInvalid) {
  EXPECT_FALSE(obs::ComputeShardImbalance({}).valid);
  EXPECT_FALSE(obs::ComputeShardImbalance({100.0}).valid);
  EXPECT_FALSE(obs::ComputeShardImbalance({0.0, 0.0}).valid);
  // One busy + one idle IS actionable (donate to the idle shard).
  EXPECT_TRUE(obs::ComputeShardImbalance({100.0, 0.0}).valid);
}

// ---- Stage breakdown merging ----------------------------------------------

TEST(StageMerge, MergesByNameNotByPosition) {
  // Heterogeneous shard programs: the same stage sits at different positions
  // on different shards. Merging by index would cross-attribute the
  // counters; merging by name must not.
  std::vector<ShardedPipeline::ShardStats> shards(2);
  shards[0].stages = {{"parse", 100, 90, 10, 0, 0, 0, 1000},
                      {"lookup", 90, 80, 10, 0, 0, 0, 2000}};
  shards[1].stages = {{"lookup", 50, 40, 10, 0, 0, 0, 500},
                      {"parse", 60, 50, 10, 0, 0, 0, 600},
                      {"police", 40, 40, 0, 0, 0, 0, 400}};
  const auto merged = MergeStageBreakdowns(shards);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].name, "parse");  // first-seen order
  EXPECT_EQ(merged[0].in, 160u);
  EXPECT_EQ(merged[0].pass, 140u);
  EXPECT_EQ(merged[0].ns, 1600u);
  EXPECT_EQ(merged[1].name, "lookup");
  EXPECT_EQ(merged[1].in, 140u);
  EXPECT_EQ(merged[1].drop, 20u);
  EXPECT_EQ(merged[1].ns, 2500u);
  EXPECT_EQ(merged[2].name, "police");
  EXPECT_EQ(merged[2].in, 40u);
}

// ---- Arena shard-ownership probe ------------------------------------------

TEST(ScaleOutArenaMigration, CrossShardProbeDetectsForeignOps) {
  enetstl::SlabArena arena;
  ebpf::SetCurrentCpu(0);
  arena.BindOwner(0);
  auto a = arena.Allocate(1, 64);
  ASSERT_NE(a.ptr, nullptr);
  EXPECT_EQ(arena.cross_shard_ops(), 0u);
  // A deliberate violation from another simulated CPU is counted...
  ebpf::SetCurrentCpu(1);
  auto b = arena.Allocate(1, 64);
  arena.Free(b.handle);
  EXPECT_EQ(arena.cross_shard_ops(), 2u);
  // ...and the owner's own traffic still is not.
  ebpf::SetCurrentCpu(0);
  arena.Free(a.handle);
  EXPECT_EQ(arena.cross_shard_ops(), 2u);
}

// ---- Scale-out engine -----------------------------------------------------

class ScaleOutMigration : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }

  static ShardedPipeline::ProgramFactory PassFactory() {
    return [](u32) -> ShardedPipeline::ShardProgram {
      return {[](ebpf::XdpContext*, u32 count, ebpf::XdpAction* verdicts) {
                for (u32 i = 0; i < count; ++i) {
                  verdicts[i] = ebpf::XdpAction::kPass;
                }
              },
              nullptr};
    };
  }

  // Like PassFactory, but each packet burns a little CPU. Stretches the run
  // so the migration controller gets many windows even when the host is
  // oversubscribed (ctest -j runs these suites in parallel).
  static ShardedPipeline::ProgramFactory SlowPassFactory(u32 spin) {
    return [spin](u32) -> ShardedPipeline::ShardProgram {
      return {[spin](ebpf::XdpContext*, u32 count, ebpf::XdpAction* verdicts) {
                for (u32 i = 0; i < count; ++i) {
                  volatile u32 sink = 0;
                  for (u32 s = 0; s < spin; ++s) {
                    sink = sink + s;
                  }
                  verdicts[i] = ebpf::XdpAction::kPass;
                }
              },
              nullptr};
    };
  }

  static MigrationPolicy AggressivePolicy() {
    MigrationPolicy policy;
    policy.enabled = true;
    policy.window_us = 100;
    policy.k_windows = 1;
    policy.skew_threshold = 1.05;
    policy.max_slots_per_round = 8;
    policy.min_window_samples = 16;
    return policy;
  }
};

TEST_F(ScaleOutMigration, StaticOracleHasExactAccountingAndAFrozenTable) {
  const auto flows = MakeFlowPopulation(512, 71);
  const auto trace = MakeUniformTrace(flows, 4096, 72);
  ShardedPipeline::Options opts;
  opts.num_workers = 4;
  opts.burst_size = 32;
  opts.warmup_packets = 200;
  opts.measure_packets = 50'000;
  opts.rss_seed = 73;

  MigrationPolicy policy;
  policy.enabled = false;  // frozen table: the oracle
  const auto result =
      ShardedPipeline(opts).MeasureScaleOut(PassFactory(), trace, policy);

  EXPECT_EQ(result.total.packets, opts.measure_packets);
  EXPECT_EQ(result.total.passed, opts.measure_packets);
  EXPECT_EQ(result.failed_workers, 0u);
  EXPECT_EQ(result.migration.slots_moved, 0u);
  EXPECT_EQ(result.migration.rounds, 0u);
  EXPECT_EQ(result.migration.final_generation, 0u);
  EXPECT_EQ(result.migration.failover_donations, 0u);
  EXPECT_GT(result.makespan_seconds, 0.0);
  EXPECT_GT(result.offered_pps, 0.0);
  ASSERT_EQ(result.shards.size(), 4u);
  u64 packets = 0;
  u32 slots = 0;
  for (const auto& shard : result.shards) {
    packets += shard.stats.packets;
    slots += shard.slots_initial;
    EXPECT_EQ(shard.slots_adopted, 0u);
    EXPECT_EQ(shard.slots_donated, 0u);
    EXPECT_FALSE(shard.failed);
  }
  EXPECT_EQ(packets, opts.measure_packets);
  EXPECT_GT(slots, 0u);
  // Makespan can never beat the busiest shard's own clock.
  for (const auto& shard : result.shards) {
    EXPECT_GE(result.makespan_seconds, shard.busy_seconds);
  }
}

TEST_F(ScaleOutMigration, SkewedLoadTriggersMigrationWithZeroLoss) {
  const auto flows = MakeFlowPopulation(1024, 81);
  const auto trace = MakeZipfTrace(flows, 8192, 2.0, 82);
  ShardedPipeline::Options opts;
  opts.num_workers = 4;
  opts.burst_size = 32;
  opts.warmup_packets = 0;
  opts.measure_packets = 200'000;
  opts.rss_seed = 83;

  // The zero-loss invariants must hold on EVERY run; whether a migration
  // lands inside one run's lifetime depends on the host's scheduler. On an
  // oversubscribed machine the controller thread can oversleep past the
  // whole drain, so retry with a longer run until a re-steer demonstrably
  // completed (donor donated, adopter adopted).
  bool migrated = false;
  for (u32 attempt = 0; attempt < 5 && !migrated; ++attempt) {
    const auto result = ShardedPipeline(opts).MeasureScaleOut(
        SlowPassFactory(200), trace, AggressivePolicy());

    // Zero loss, zero duplication: counts are exact despite live re-steers.
    ASSERT_EQ(result.total.packets, opts.measure_packets);
    ASSERT_EQ(result.total.passed, opts.measure_packets);
    ASSERT_EQ(result.failed_workers, 0u);
    ASSERT_GT(result.migration.windows, 0u);
    ASSERT_EQ(result.migration.final_generation, result.migration.slots_moved);

    u32 adopted = 0, donated = 0;
    for (const auto& shard : result.shards) {
      adopted += shard.slots_adopted;
      donated += shard.slots_donated;
    }
    // Every adoption the controller counted is one a shard reported.
    ASSERT_EQ(result.migration.handoffs, adopted);
    // No worker died, so no ring ever needed sweeping and every donated
    // descriptor was adopted directly.
    ASSERT_EQ(result.migration.swept_handoffs, 0u);
    ASSERT_EQ(adopted, donated);

    // Zipf 2.0 across 4 shards is grossly imbalanced: the controller should
    // observe it and move flow-groups end to end.
    migrated = result.migration.triggers > 0 && result.migration.rounds >= 1 &&
               result.migration.slots_moved >= 1 && adopted >= 1;
    opts.measure_packets *= 2;  // stretch the window race, keep zero loss
  }
  EXPECT_TRUE(migrated)
      << "no attempt completed a hot->cold re-steer end to end";
}

// The differential acceptance test: the migrating datapath must produce
// bit-identical per-flow verdict streams to the static-RSS oracle — no loss,
// no duplication, no intra-flow reordering — with migration demonstrably
// active. Runs under TSan in CI (the per-flow append below is exactly the
// slot-affinity claim the engine makes).
class FlowStreamRecorder {
 public:
  explicit FlowStreamRecorder(u32 flows) : streams_(flows) {}

  ShardedPipeline::ProgramFactory Factory() {
    return [this](u32) -> ShardedPipeline::ShardProgram {
      return {[this](ebpf::XdpContext* ctxs, u32 count,
                     ebpf::XdpAction* verdicts) {
                for (u32 i = 0; i < count; ++i) {
                  u32 flow, seq;
                  std::memcpy(&flow, ctxs[i].data + kPayloadOffset, 4);
                  std::memcpy(&seq, ctxs[i].data + kPayloadOffset + 4, 4);
                  verdicts[i] = (flow + seq) % 3 == 0
                                    ? ebpf::XdpAction::kDrop
                                    : ebpf::XdpAction::kPass;
                  // Per-flow append with no lock: only valid because one
                  // shard at a time ever serves a flow, and every ownership
                  // transfer is a happens-before edge. TSan checks the claim.
                  streams_[flow].push_back(
                      (static_cast<u64>(seq) << 2) |
                      static_cast<u64>(verdicts[i] == ebpf::XdpAction::kDrop));
                }
              },
              nullptr};
    };
  }

  const std::vector<std::vector<u64>>& streams() const { return streams_; }

 private:
  static constexpr u32 kPayloadOffset = ebpf::kL4HeaderOffset + 8;
  std::vector<std::vector<u64>> streams_;
};

TEST_F(ScaleOutMigration, PerFlowVerdictStreamsAreBitIdenticalToTheOracle) {
  constexpr u32 kFlows = 96;
  const auto flows = MakeFlowPopulation(kFlows, 91);
  auto trace = MakeZipfTrace(flows, 8192, 1.8, 92);

  // Stamp each packet with (flow index, per-flow sequence number).
  std::unordered_map<u32, u32> flow_of_src;
  for (u32 f = 0; f < kFlows; ++f) {
    flow_of_src[flows[f].src_ip] = f;
  }
  std::vector<u32> next_seq(kFlows, 0);
  for (auto& packet : trace) {
    ebpf::XdpContext ctx;
    ctx.data = packet.frame;
    ctx.data_end = packet.frame + ebpf::kFrameSize;
    ebpf::FiveTuple tuple;
    ASSERT_TRUE(ebpf::ParseFiveTuple(ctx, &tuple));
    const u32 flow = flow_of_src.at(tuple.src_ip);
    packet.SetPayloadWord(0, flow);
    packet.SetPayloadWord(1, next_seq[flow]++);
  }

  ShardedPipeline::Options opts;
  opts.num_workers = 4;
  opts.burst_size = 32;
  opts.warmup_packets = 0;  // warmup would replay stamped packets into the
                            // recorder-free region; keep the streams pure
  opts.measure_packets = 100'000;
  opts.rss_seed = 93;
  const ShardedPipeline pipeline(opts);

  FlowStreamRecorder oracle(kFlows);
  MigrationPolicy frozen;
  frozen.enabled = false;
  const auto static_result =
      pipeline.MeasureScaleOut(oracle.Factory(), trace, frozen);
  ASSERT_EQ(static_result.total.packets, opts.measure_packets);

  // Whether a re-steer lands within one run is host-scheduling dependent
  // (see SkewedLoadTriggersMigrationWithZeroLoss); retry with a fresh
  // recorder until migration was demonstrably active. Every attempt's
  // streams must match the oracle regardless.
  bool compared_with_migration = false;
  for (u32 attempt = 0; attempt < 5 && !compared_with_migration; ++attempt) {
    FlowStreamRecorder migrated(kFlows);
    const auto migrate_result =
        pipeline.MeasureScaleOut(migrated.Factory(), trace, AggressivePolicy());
    ASSERT_EQ(migrate_result.total.packets, opts.measure_packets);

    // Bit-identical per-flow streams: same verdicts, same order, no loss, no
    // duplication, no intra-flow reorder.
    u64 total = 0;
    for (u32 f = 0; f < kFlows; ++f) {
      ASSERT_EQ(migrated.streams()[f].size(), oracle.streams()[f].size())
          << "flow " << f;
      EXPECT_EQ(migrated.streams()[f], oracle.streams()[f]) << "flow " << f;
      total += migrated.streams()[f].size();
    }
    EXPECT_EQ(total, opts.measure_packets);
    compared_with_migration = migrate_result.migration.slots_moved >= 1;
  }
  // The comparison is only meaningful if migration actually happened.
  EXPECT_TRUE(compared_with_migration)
      << "no attempt moved a flow-group during the measured run";
}

TEST_F(ScaleOutMigration, SeededKillComposesWithMigrationAtZeroLoss) {
  const auto flows = MakeFlowPopulation(1024, 95);
  const auto trace = MakeZipfTrace(flows, 8192, 1.5, 96);
  ShardedPipeline::Options opts;
  opts.num_workers = 4;
  opts.burst_size = 32;
  opts.warmup_packets = 0;
  opts.measure_packets = 150'000;
  opts.rss_seed = 97;

  // Worker 1 dies early, while the migration controller is live.
  FaultInjector::Global().ArmOneShot("shard.kill.1", 20);
  const auto result = ShardedPipeline(opts).MeasureScaleOut(
      PassFactory(), trace, AggressivePolicy());

  EXPECT_EQ(result.failed_workers, 1u);
  EXPECT_TRUE(result.shards[1].failed);
  // Survivors adopt every donated flow-group: the kill costs zero packets.
  EXPECT_EQ(result.total.packets, opts.measure_packets);
  EXPECT_EQ(result.total.passed, opts.measure_packets);
  EXPECT_GE(result.migration.failover_donations, 1u);
  EXPECT_GT(result.failover_packets, 0u);
  // Packets served from donated flow-groups are surfaced as degraded on the
  // absorbing shards, and balance the failover budget exactly.
  u64 degraded = 0;
  for (const auto& shard : result.shards) {
    degraded += shard.stats.degraded;
  }
  EXPECT_EQ(result.shards[1].stats.degraded, 0u);
  EXPECT_EQ(degraded, result.failover_packets);
  EXPECT_EQ(result.total.degraded, result.failover_packets);
}

TEST_F(ScaleOutMigration, AllWorkersDeadDropsTheResidualBudgetAndTerminates) {
  const auto flows = MakeFlowPopulation(64, 98);
  const auto trace = MakeUniformTrace(flows, 512, 99);
  ShardedPipeline::Options opts;
  opts.num_workers = 2;
  opts.burst_size = 16;
  opts.warmup_packets = 0;
  opts.measure_packets = 10'000;
  FaultInjector::Global().ArmOneShot("shard.kill.0", 0);
  FaultInjector::Global().ArmOneShot("shard.kill.1", 0);

  MigrationPolicy policy;  // defaults; migration hardly matters here
  const auto result =
      ShardedPipeline(opts).MeasureScaleOut(PassFactory(), trace, policy);

  EXPECT_EQ(result.failed_workers, 2u);
  EXPECT_EQ(result.total.packets, 0u);  // honest shortfall, no hang
  EXPECT_EQ(result.failover_packets, 0u);
}

TEST_F(ScaleOutMigration, SingleWorkerDegeneratesToASerialRun) {
  const auto flows = MakeFlowPopulation(64, 101);
  const auto trace = MakeUniformTrace(flows, 512, 102);
  ShardedPipeline::Options opts;
  opts.num_workers = 1;
  opts.burst_size = 16;
  opts.warmup_packets = 0;
  opts.measure_packets = 5'000;
  const auto result = ShardedPipeline(opts).MeasureScaleOut(
      PassFactory(), trace, AggressivePolicy());
  EXPECT_EQ(result.total.packets, opts.measure_packets);
  EXPECT_EQ(result.migration.slots_moved, 0u);  // nowhere to migrate to
  EXPECT_EQ(result.shards[0].slots_adopted, 0u);
}

}  // namespace
}  // namespace pktgen
