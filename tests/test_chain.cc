// Tests for the ChainExecutor service-chain runtime: scalar/burst/stage-major
// bit-equivalence across depths and variants, load-time depth enforcement,
// the unloaded-chain contract, per-stage counter consistency, oversized-burst
// chunking, and the sharded deployment adapter.
#include "nf/chain.h"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "nf/nf_registry.h"
#include "pktgen/flowgen.h"
#include "pktgen/sharded_pipeline.h"

namespace nf {
namespace {

const BenchEnv& Env() {
  static const BenchEnv env = MakeDefaultBenchEnv();
  return env;
}

std::vector<std::string> StageNames(u32 length) {
  static const char* kCycle[] = {"cuckoo-filter", "vbf-membership"};
  std::vector<std::string> names;
  for (u32 i = 0; i < length; ++i) {
    names.push_back(kCycle[i % 2]);
  }
  return names;
}

// A trivial always-PASS stage for depth-limit tests.
class PassNf : public NetworkFunction {
 public:
  explicit PassNf(u32* executions = nullptr) : executions_(executions) {}
  ebpf::XdpAction Process(ebpf::XdpContext&) override {
    if (executions_ != nullptr) {
      ++*executions_;
    }
    return ebpf::XdpAction::kPass;
  }
  std::string_view name() const override { return "pass"; }
  Variant variant() const override { return Variant::kKernel; }

 private:
  u32* executions_;
};

ebpf::XdpContext ContextFor(pktgen::Packet& packet) {
  return ebpf::XdpContext{packet.frame, packet.frame + ebpf::kFrameSize, 0};
}

// The tentpole invariant: for every chain depth and variant, the burst path
// and a manual stage-major traversal both produce verdicts bit-identical to
// the scalar tail-call walk. The uniform trace mixes resident and
// non-resident flows, so stages really drop packets and the survivor
// partition/regroup logic is exercised.
TEST(ChainEquivalence, BurstMatchesScalarAcrossDepthsAndVariants) {
  const Variant kVariants[] = {Variant::kEbpf, Variant::kKernel,
                               Variant::kEnetstl};
  constexpr u32 kPackets = 512;
  for (u32 depth = 1; depth <= 8; ++depth) {
    const std::vector<std::string> names = StageNames(depth);
    for (const Variant v : kVariants) {
      auto scalar_chain = MakeBenchChain(names, v, Env());
      auto burst_chain = MakeBenchChain(names, v, Env());
      ASSERT_NE(scalar_chain, nullptr) << depth << " " << VariantName(v);
      ASSERT_NE(burst_chain, nullptr);
      ASSERT_EQ(scalar_chain->depth(), depth);

      // Stage-major twin: the same stages as standalone NFs, applied burst
      // by burst with manual partition (what the executor must reproduce).
      std::vector<std::unique_ptr<NetworkFunction>> stages;
      for (const std::string& name : names) {
        const NfEntry* entry = NfRegistry::Global().Lookup(name);
        ASSERT_NE(entry, nullptr);
        auto setup = MakeVariantSetup(*entry, v, Env());
        ASSERT_NE(setup.nf, nullptr);
        stages.push_back(std::move(setup.nf));
      }

      for (u32 i = 0; i < kPackets; ++i) {
        pktgen::Packet scalar_pkt = Env().uniform[i % Env().uniform.size()];
        pktgen::Packet burst_pkt = scalar_pkt;
        pktgen::Packet manual_pkt = scalar_pkt;

        ebpf::XdpContext sc = ContextFor(scalar_pkt);
        const ebpf::XdpAction scalar_verdict = scalar_chain->Process(sc);

        ebpf::XdpContext bc = ContextFor(burst_pkt);
        ebpf::XdpAction burst_verdict;
        burst_chain->ProcessBurst(&bc, 1, &burst_verdict);

        ebpf::XdpContext mc = ContextFor(manual_pkt);
        ebpf::XdpAction manual_verdict = ebpf::XdpAction::kPass;
        for (auto& stage : stages) {
          manual_verdict = stage->Process(mc);
          if (manual_verdict != ebpf::XdpAction::kPass) {
            break;
          }
        }

        ASSERT_EQ(scalar_verdict, burst_verdict)
            << "depth " << depth << " " << VariantName(v) << " packet " << i;
        ASSERT_EQ(scalar_verdict, manual_verdict)
            << "depth " << depth << " " << VariantName(v) << " packet " << i;
      }
    }
  }
}

// Whole-burst equivalence including the remainder tail (199 = 3 chunks + 7).
TEST(ChainEquivalence, OversizedBurstSplitsAndMatchesScalar) {
  constexpr u32 kCount = 3 * kMaxNfBurst + 7;
  const std::vector<std::string> names = StageNames(4);
  auto scalar_chain = MakeBenchChain(names, Variant::kEnetstl, Env());
  auto burst_chain = MakeBenchChain(names, Variant::kEnetstl, Env());
  ASSERT_NE(scalar_chain, nullptr);
  ASSERT_NE(burst_chain, nullptr);

  std::vector<pktgen::Packet> scalar_pkts(Env().uniform.begin(),
                                          Env().uniform.begin() + kCount);
  std::vector<pktgen::Packet> burst_pkts = scalar_pkts;
  std::vector<ebpf::XdpContext> ctxs(kCount);
  std::vector<ebpf::XdpAction> scalar_verdicts(kCount);
  std::vector<ebpf::XdpAction> burst_verdicts(kCount);
  for (u32 i = 0; i < kCount; ++i) {
    ebpf::XdpContext ctx = ContextFor(scalar_pkts[i]);
    scalar_verdicts[i] = scalar_chain->Process(ctx);
    ctxs[i] = ContextFor(burst_pkts[i]);
  }
  burst_chain->ProcessBurst(ctxs.data(), kCount, burst_verdicts.data());
  for (u32 i = 0; i < kCount; ++i) {
    ASSERT_EQ(scalar_verdicts[i], burst_verdicts[i]) << "packet " << i;
  }
}

TEST(ChainExecutor, StageStatsAreFlowConserving) {
  constexpr u32 kCount = 256;
  auto chain = MakeBenchChain(StageNames(3), Variant::kKernel, Env());
  ASSERT_NE(chain, nullptr);
  std::vector<pktgen::Packet> pkts(Env().uniform.begin(),
                                   Env().uniform.begin() + kCount);
  std::vector<ebpf::XdpContext> ctxs(kCount);
  std::vector<ebpf::XdpAction> verdicts(kCount);
  for (u32 i = 0; i < kCount; ++i) {
    ctxs[i] = ContextFor(pkts[i]);
  }
  chain->ProcessBurst(ctxs.data(), kCount, verdicts.data());

  const auto& stats = chain->stage_stats();
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].in, kCount);
  ebpf::u64 exited = 0;
  for (std::size_t s = 0; s < stats.size(); ++s) {
    const auto& st = stats[s];
    // Verdict histogram partitions the stage's input.
    EXPECT_EQ(st.in, st.pass + st.drop + st.tx + st.redirect + st.aborted);
    // Survivors of stage s are exactly stage s+1's input.
    if (s + 1 < stats.size()) {
      EXPECT_EQ(stats[s + 1].in, st.out());
    }
    exited += st.drop + st.tx + st.redirect + st.aborted;
    EXPECT_EQ(st.name, s % 2 == 0 ? "cuckoo-filter" : "vbf-membership");
  }
  // Every packet exits exactly once: non-PASS exits plus last-stage PASSes.
  EXPECT_EQ(exited + stats.back().pass, kCount);
  EXPECT_GT(stats.back().ns, 0u);  // burst path accumulates stage time

  chain->ResetStageStats();
  EXPECT_EQ(chain->stage_stats()[0].in, 0u);
  EXPECT_EQ(chain->stage_stats()[0].name, "cuckoo-filter");
}

TEST(ChainExecutor, DepthAtTailCallLimitLoadsAndRunsEveryStage) {
  ChainExecutor chain("deep-33");
  u32 executions = 0;
  for (u32 i = 0; i < ebpf::kMaxTailCallChain; ++i) {
    chain.AddStage(std::make_unique<PassNf>(&executions));
  }
  ASSERT_TRUE(chain.Load().ok);
  pktgen::Packet pkt = Env().uniform[0];
  ebpf::XdpContext ctx = ContextFor(pkt);
  EXPECT_EQ(chain.Process(ctx), ebpf::XdpAction::kPass);
  // The entry is execution 1 of 33; all 33 stages run within the budget.
  EXPECT_EQ(executions, ebpf::kMaxTailCallChain);
}

TEST(ChainExecutor, DepthBeyondTailCallLimitIsRejectedAtLoad) {
  ChainExecutor chain("deep-34");
  for (u32 i = 0; i < ebpf::kMaxTailCallChain + 1; ++i) {
    chain.AddStage(std::make_unique<PassNf>());
  }
  const ebpf::VerifyResult result = chain.Load();
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(chain.loaded());
  ASSERT_FALSE(result.errors.empty());
  EXPECT_NE(result.errors.front().find("MAX_TAIL_CALL_CNT"),
            std::string::npos);
}

TEST(ChainExecutor, UnloadedChainThrowsAndEmptyChainFailsLoad) {
  ChainExecutor chain("unloaded");
  chain.AddStage(std::make_unique<PassNf>());
  pktgen::Packet pkt = Env().uniform[0];
  ebpf::XdpContext ctx = ContextFor(pkt);
  EXPECT_THROW(chain.Process(ctx), std::logic_error);
  ebpf::XdpAction verdict;
  EXPECT_THROW(chain.ProcessBurst(&ctx, 1, &verdict), std::logic_error);

  ChainExecutor empty("empty");
  EXPECT_FALSE(empty.Load().ok);

  ChainExecutor sealed("sealed");
  sealed.AddStage(std::make_unique<PassNf>());
  ASSERT_TRUE(sealed.Load().ok);
  EXPECT_THROW(sealed.AddStage(std::make_unique<PassNf>()), std::logic_error);
}

TEST(ChainExecutor, VariantIsWeakestStageModel) {
  auto kernel_chain = MakeBenchChain(StageNames(2), Variant::kKernel, Env());
  ASSERT_NE(kernel_chain, nullptr);
  EXPECT_EQ(kernel_chain->variant(), Variant::kKernel);
  auto enetstl_chain = MakeBenchChain(StageNames(2), Variant::kEnetstl, Env());
  ASSERT_NE(enetstl_chain, nullptr);
  EXPECT_EQ(enetstl_chain->variant(), Variant::kEnetstl);
  auto ebpf_chain = MakeBenchChain(StageNames(2), Variant::kEbpf, Env());
  ASSERT_NE(ebpf_chain, nullptr);
  EXPECT_EQ(ebpf_chain->variant(), Variant::kEbpf);
}

TEST(MakeBenchChain, RejectsUnknownAndUnsupportedStages) {
  EXPECT_EQ(MakeBenchChain({"no-such-nf"}, Variant::kKernel, Env()), nullptr);
  // skiplist-kv has no pure-eBPF variant (P1).
  EXPECT_EQ(MakeBenchChain({"skiplist-kv"}, Variant::kEbpf, Env()), nullptr);
  EXPECT_EQ(MakeBenchChain({}, Variant::kKernel, Env()), nullptr);
}

TEST(ShardedChainFactory, EveryShardExportsItsStageBreakdown) {
  pktgen::ShardedPipeline::Options opts;
  opts.num_workers = 2;
  opts.burst_size = 16;
  opts.warmup_packets = 0;
  opts.measure_packets = 2'000;
  const pktgen::ShardedPipeline pipeline(opts);
  const pktgen::Trace trace =
      pktgen::MakeUniformTrace(Env().flows, 4096, 91);

  const auto result = pipeline.MeasureScaleOut(
      ShardedChainFactory([](u32) {
        return std::shared_ptr<ChainExecutor>(
            MakeBenchChain(StageNames(2), Variant::kEnetstl, Env()));
      }),
      trace, {.enabled = false});  // static RSS

  ASSERT_EQ(result.shards.size(), 2u);
  ebpf::u64 total_in = 0;
  for (const auto& shard : result.shards) {
    ASSERT_EQ(shard.stages.size(), 2u);
    EXPECT_EQ(shard.stages[0].name, "cuckoo-filter");
    EXPECT_EQ(shard.stages[1].name, "vbf-membership");
    // Flow conservation holds per shard (warmup is zero, so the chain's
    // counters cover exactly the measured packets).
    EXPECT_EQ(shard.stages[1].in, shard.stages[0].pass);
    EXPECT_EQ(shard.stages[0].in, shard.stats.packets);
    total_in += shard.stages[0].in;
  }
  EXPECT_EQ(total_in, result.total.packets);
}

}  // namespace
}  // namespace nf
