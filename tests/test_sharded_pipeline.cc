// Tests for the RSS-sharded engine run as static RSS (frozen indirection
// table): exact per-CPU accounting, flow affinity of the steering hash, and
// edge cases.
#include "pktgen/sharded_pipeline.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "ebpf/helper.h"
#include "pktgen/flowgen.h"

namespace pktgen {
namespace {

// Frozen indirection table: every run here is static RSS.
constexpr MigrationPolicy kStaticRss{.enabled = false};

ShardedPipeline::Options SmallRun(u32 workers) {
  ShardedPipeline::Options opts;
  opts.num_workers = workers;
  opts.burst_size = 16;
  opts.warmup_packets = 100;
  opts.measure_packets = 10'000;
  return opts;
}

// Counting burst handler; each worker gets its own counter cell and flow set
// (only read back after the workers have joined).
struct WorkerObservation {
  u64 packets = 0;
  std::set<u32> src_ips;
};

ShardedPipeline::ProgramFactory ObservingFactory(
    std::vector<WorkerObservation>& obs) {
  return [&obs](u32 cpu) -> ShardedPipeline::ShardProgram {
    WorkerObservation* mine = &obs[cpu];
    return {[mine](ebpf::XdpContext* ctxs, u32 count,
                   ebpf::XdpAction* verdicts) {
              for (u32 i = 0; i < count; ++i) {
                ++mine->packets;
                ebpf::FiveTuple tuple;
                if (ebpf::ParseFiveTuple(ctxs[i], &tuple)) {
                  mine->src_ips.insert(tuple.src_ip);
                  verdicts[i] = ebpf::XdpAction::kPass;
                } else {
                  verdicts[i] = ebpf::XdpAction::kAborted;
                }
              }
            },
            nullptr};
  };
}

// The queue a packet is steered to: its slot's entry in the initial table.
u32 QueueFor(const Packet& packet, u32 queues, u32 seed) {
  return BuildRssIndirection(queues)[RssSlotForPacket(
      packet, kRssIndirectionSize, seed)];
}

TEST(RssSteering, DeterministicAndInRange) {
  const auto flows = MakeFlowPopulation(256, 11);
  const auto trace = MakeUniformTrace(flows, 1024, 12);
  for (const u32 queues : {1u, 2u, 3u, 4u}) {
    for (const auto& packet : trace) {
      const u32 slot = RssSlotForPacket(packet, kRssIndirectionSize, 7);
      EXPECT_LT(slot, kRssIndirectionSize);
      EXPECT_EQ(slot, RssSlotForPacket(packet, kRssIndirectionSize, 7));
      const u32 q = QueueFor(packet, queues, 7);
      EXPECT_LT(q, queues);
      EXPECT_EQ(q, QueueFor(packet, queues, 7));
    }
  }
  // Single queue: everything lands on 0.
  for (const auto& packet : trace) {
    EXPECT_EQ(QueueFor(packet, 1, 7), 0u);
  }
}

TEST(RssSteering, SpreadsFlowsAcrossQueues) {
  const auto flows = MakeFlowPopulation(1024, 12);
  u32 counts[4] = {0, 0, 0, 0};
  for (const auto& flow : flows) {
    ++counts[QueueFor(Packet::FromTuple(flow), 4, 0)];
  }
  for (const u32 c : counts) {
    EXPECT_GT(c, 128u);  // expected 256 per queue
    EXPECT_LT(c, 512u);
  }
}

TEST(ShardedPipeline, PerCpuStatsSumExactlyToGlobal) {
  const auto flows = MakeFlowPopulation(512, 13);
  const auto trace = MakeUniformTrace(flows, 4096, 14);
  for (const u32 workers : {1u, 2u, 3u}) {
    const ShardedPipeline pipeline(SmallRun(workers));
    std::vector<WorkerObservation> obs(ebpf::kNumPossibleCpus);
    const auto result =
        pipeline.MeasureScaleOut(ObservingFactory(obs), trace, kStaticRss);

    ASSERT_EQ(result.shards.size(), workers);
    u64 packets = 0, dropped = 0, passed = 0, aborted = 0, depth = 0;
    for (const auto& shard : result.shards) {
      packets += shard.stats.packets;
      dropped += shard.stats.dropped;
      passed += shard.stats.passed;
      aborted += shard.stats.aborted;
      depth += shard.queue_depth;
    }
    EXPECT_EQ(packets, result.total.packets);
    EXPECT_EQ(result.total.packets, pipeline.options().measure_packets);
    EXPECT_EQ(dropped, result.total.dropped);
    EXPECT_EQ(passed, result.total.passed);
    EXPECT_EQ(aborted, result.total.aborted);
    EXPECT_EQ(dropped + passed + aborted, packets);
    EXPECT_EQ(depth, trace.size());  // every trace packet steered somewhere
    EXPECT_GT(result.total.pps, 0.0);
    EXPECT_GT(result.wall_seconds, 0.0);
  }
}

TEST(ShardedPipeline, FlowAffinityKeepsEachFlowOnOneWorker) {
  const auto flows = MakeFlowPopulation(512, 15);
  const auto trace = MakeUniformTrace(flows, 4096, 16);
  auto opts = SmallRun(3);
  opts.rss_seed = 23;
  const ShardedPipeline pipeline(opts);
  std::vector<WorkerObservation> obs(ebpf::kNumPossibleCpus);
  const auto result =
      pipeline.MeasureScaleOut(ObservingFactory(obs), trace, kStaticRss);
  ASSERT_EQ(result.migration.final_generation, 0u);  // the table stayed frozen

  // Disjoint: no src ip appears on two workers (src_ip uniquely identifies a
  // flow in MakeFlowPopulation).
  for (u32 a = 0; a < 3; ++a) {
    for (u32 b = a + 1; b < 3; ++b) {
      for (const u32 ip : obs[a].src_ips) {
        EXPECT_EQ(obs[b].src_ips.count(ip), 0u)
            << "flow on workers " << a << " and " << b;
      }
    }
  }
  // And each observed flow sits exactly where its slot's entry in the
  // initial table steers it.
  for (const auto& flow : flows) {
    const u32 q = QueueFor(Packet::FromTuple(flow), 3, opts.rss_seed);
    for (u32 w = 0; w < 3; ++w) {
      if (w != q) {
        EXPECT_EQ(obs[w].src_ips.count(flow.src_ip), 0u);
      }
    }
  }
}

TEST(ShardedPipeline, WorkerCountIsClamped) {
  const auto flows = MakeFlowPopulation(64, 17);
  const auto trace = MakeUniformTrace(flows, 512, 18);
  std::vector<WorkerObservation> obs(ebpf::kNumPossibleCpus);

  auto opts = SmallRun(0);  // clamped up to 1
  const auto one = ShardedPipeline(opts).MeasureScaleOut(ObservingFactory(obs),
                                                         trace, kStaticRss);
  EXPECT_EQ(one.shards.size(), 1u);

  opts.num_workers = 1000;  // clamped down to kNumPossibleCpus
  for (auto& o : obs) {
    o = WorkerObservation{};
  }
  const auto many = ShardedPipeline(opts).MeasureScaleOut(ObservingFactory(obs),
                                                          trace, kStaticRss);
  EXPECT_EQ(many.shards.size(), static_cast<std::size_t>(ebpf::kNumPossibleCpus));
}

TEST(ShardedPipeline, EmptyTraceYieldsZeroStats) {
  std::vector<WorkerObservation> obs(ebpf::kNumPossibleCpus);
  const auto result = ShardedPipeline(SmallRun(2)).MeasureScaleOut(
      ObservingFactory(obs), Trace{}, kStaticRss);
  EXPECT_EQ(result.total.packets, 0u);
  EXPECT_TRUE(result.shards.empty());
}

TEST(ShardedPipeline, WorkersRunOnTheirSimulatedCpus) {
  const auto flows = MakeFlowPopulation(64, 19);
  const auto trace = MakeUniformTrace(flows, 512, 20);
  std::vector<u32> seen_cpu(ebpf::kNumPossibleCpus, 0xffffffffu);
  const ShardedPipeline pipeline(SmallRun(2));
  const auto result = pipeline.MeasureScaleOut(
      [&seen_cpu](u32 cpu) -> ShardedPipeline::ShardProgram {
        u32* cell = &seen_cpu[cpu];
        return {[cell](ebpf::XdpContext*, u32 count,
                       ebpf::XdpAction* verdicts) {
                  *cell = ebpf::CurrentCpu();
                  for (u32 i = 0; i < count; ++i) {
                    verdicts[i] = ebpf::XdpAction::kPass;
                  }
                },
                nullptr};
      },
      trace, kStaticRss);
  for (const auto& shard : result.shards) {
    if (shard.stats.packets > 0) {
      EXPECT_EQ(seen_cpu[shard.cpu], shard.cpu);
    }
  }
}

}  // namespace
}  // namespace pktgen
