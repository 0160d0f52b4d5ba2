// Differential suite for the fused executor, the chain's one burst path:
// fused bursts must match the scalar tail-call walk (the semantic oracle) —
// verdicts and per-stage counters for every packet, and each telemetry
// scope's sampled flow sequence — across depths 1..8, all variants, seeded
// traffic mixes (resident / non-resident / corrupted frames), burst shapes,
// a non-lowered stage mid-chain and fault-injection-degraded structures.
// Plus the fold lifecycle: Load() folds the program, a committed edit
// re-folds it before the next burst, and a rejected edit keeps the program
// and its generation.
#include "nf/fused_chain.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/fault_injector.h"
#include "nf/chain.h"
#include "nf/nf_registry.h"
#include "obs/telemetry.h"
#include "pktgen/flowgen.h"

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

ebpf::XdpContext ContextFor(pktgen::Packet& packet) {
  return ebpf::XdpContext{packet.frame, packet.frame + ebpf::kFrameSize, 0};
}

// Builds a deterministic primed chain; Load() has folded its fused program.
std::unique_ptr<ChainExecutor> MakeChain(const std::vector<std::string>& names,
                                         Variant v) {
  return MakeBenchChain(names, v, Env());
}

// Seeded op mix: uniform packets over a flow window [first, first + count),
// with every `corrupt_every`-th frame's Ethernet header zeroed so parsing
// fails (kAborted at the first stage that looks).
std::vector<pktgen::Packet> MakeMix(u32 first_flow, u32 flow_count,
                                    u32 packets, u32 seed,
                                    u32 corrupt_every = 0) {
  const std::vector<ebpf::FiveTuple> flows(
      Env().flows.begin() + first_flow,
      Env().flows.begin() + first_flow + flow_count);
  const pktgen::Trace trace = pktgen::MakeUniformTrace(flows, packets, seed);
  std::vector<pktgen::Packet> pkts(trace.begin(), trace.begin() + packets);
  if (corrupt_every != 0) {
    for (u32 i = corrupt_every - 1; i < packets; i += corrupt_every) {
      std::memset(pkts[i].frame, 0, 14);  // wreck the Ethernet header
    }
  }
  return pkts;
}

// Per-stage counters without the timing field (the scalar walk does not
// time stages; everything else must match exactly).
struct StageCounts {
  u64 in, pass, drop, tx, redirect, aborted;
  bool operator==(const StageCounts& o) const {
    return in == o.in && pass == o.pass && drop == o.drop && tx == o.tx &&
           redirect == o.redirect && aborted == o.aborted;
  }
};

std::vector<StageCounts> Counts(const ChainExecutor& chain) {
  std::vector<StageCounts> out;
  for (const pktgen::StageStats& s : chain.stage_stats()) {
    out.push_back({s.in, s.pass, s.drop, s.tx, s.redirect, s.aborted});
  }
  return out;
}

// Drives `chain` over `pkts` in bursts of `burst`, returning the verdicts.
// Each call deep-copies the packets so frame state never leaks between
// runs.
std::vector<ebpf::XdpAction> RunChain(ChainExecutor& chain,
                                      const std::vector<pktgen::Packet>& pkts,
                                      u32 burst) {
  std::vector<pktgen::Packet> copies = pkts;
  std::vector<ebpf::XdpAction> verdicts(copies.size());
  std::vector<ebpf::XdpContext> ctxs(copies.size());
  for (std::size_t i = 0; i < copies.size(); ++i) {
    ctxs[i] = ContextFor(copies[i]);
  }
  for (std::size_t base = 0; base < copies.size(); base += burst) {
    const u32 n = static_cast<u32>(
        std::min<std::size_t>(burst, copies.size() - base));
    chain.ProcessBurst(ctxs.data() + base, n, verdicts.data() + base);
  }
  return verdicts;
}

// The oracle: one scalar tail-call walk per packet, in arrival order.
std::vector<ebpf::XdpAction> RunScalar(
    ChainExecutor& chain, const std::vector<pktgen::Packet>& pkts) {
  std::vector<ebpf::XdpAction> verdicts(pkts.size());
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    pktgen::Packet copy = pkts[i];
    ebpf::XdpContext ctx = ContextFor(copy);
    verdicts[i] = chain.Process(ctx);
  }
  return verdicts;
}

// Core differential check: twin chains, one driven through bursts, one
// through the scalar walk, over identical traffic; verdicts and per-stage
// counters must match for every packet.
void ExpectBurstMatchesScalar(ChainExecutor& burst_chain,
                              ChainExecutor& scalar_chain,
                              const std::vector<pktgen::Packet>& pkts,
                              u32 burst, const std::string& label) {
  const std::vector<ebpf::XdpAction> burst_verdicts =
      RunChain(burst_chain, pkts, burst);
  const std::vector<ebpf::XdpAction> scalar_verdicts =
      RunScalar(scalar_chain, pkts);
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    ASSERT_EQ(burst_verdicts[i], scalar_verdicts[i])
        << label << " packet " << i;
  }
  EXPECT_EQ(Counts(burst_chain), Counts(scalar_chain)) << label;
}

void ExpectBurstMatchesScalar(const std::vector<std::string>& names,
                              Variant v,
                              const std::vector<pktgen::Packet>& pkts,
                              u32 burst, const std::string& label) {
  auto burst_chain = MakeChain(names, v);
  auto scalar_chain = MakeChain(names, v);
  ASSERT_NE(burst_chain, nullptr) << label;
  ASSERT_NE(scalar_chain, nullptr) << label;
  ExpectBurstMatchesScalar(*burst_chain, *scalar_chain, pkts, burst, label);
}

// ---------------------------------------------------------------------------
// Differential: depths x variants x op mixes x burst shapes
// ---------------------------------------------------------------------------

// Every case below compares the fused burst walk with the scalar tail-call
// walk on a twin chain.
TEST(FusedChainDifferential, MatchesGenericAcrossDepthsVariantsAndMixes) {
  const Variant kVariants[] = {Variant::kEbpf, Variant::kKernel,
                               Variant::kEnetstl};
  // Three seeded mixes: resident-heavy (nearly all PASS, dense lanes),
  // non-resident-heavy (drop at the first stage, sparse lanes), and a mixed
  // window with corrupted frames (kAborted interleaved).
  struct Mix {
    const char* name;
    u32 first, flows, corrupt;
  };
  const Mix kMixes[] = {
      {"resident", 0, 2048, 0},
      {"nonresident", 3500, 596, 0},
      {"mixed+corrupt", 1024, 3000, 13},
  };
  for (u32 depth = 1; depth <= 8; ++depth) {
    const std::vector<std::string> names = StageNames(depth);
    for (const Variant v : kVariants) {
      for (const Mix& mix : kMixes) {
        const u32 seed = 1000 * depth + 10 * static_cast<u32>(v) + mix.first;
        const std::vector<pktgen::Packet> pkts =
            MakeMix(mix.first, mix.flows, 256, seed, mix.corrupt);
        ExpectBurstMatchesScalar(
            names, v, pkts, 32,
            "depth " + std::to_string(depth) + " " +
                std::string(VariantName(v)) + " " + mix.name);
      }
    }
  }
}

TEST(FusedChainDifferential, BurstShapesIncludingOversized) {
  const std::vector<std::string> names = StageNames(4);
  const std::vector<pktgen::Packet> pkts = MakeMix(1024, 3000, 417, 21, 11);
  for (const u32 burst : {1u, 7u, 32u, kMaxNfBurst, 3 * kMaxNfBurst + 7}) {
    ExpectBurstMatchesScalar(names, Variant::kEnetstl, pkts, burst,
                             "burst " + std::to_string(burst));
  }
}

// A stateful, non-lowered stage (heavykeeper mutates its sketch on every
// packet) between two lowered membership stages: the fused walk must feed it
// the exact survivor sequence the scalar walk does, and re-parse keys after
// it (the stage may touch frames).
TEST(FusedChainDifferential, MixedChainWithNonLoweredStage) {
  const std::vector<std::string> names = {"cuckoo-filter", "heavykeeper",
                                          "vbf-membership"};
  const std::vector<pktgen::Packet> pkts = MakeMix(1500, 2500, 384, 33, 17);
  for (const Variant v : {Variant::kEbpf, Variant::kKernel,
                          Variant::kEnetstl}) {
    ExpectBurstMatchesScalar(names, v, pkts, 32,
                             "mixed " + std::string(VariantName(v)));
  }
  // Sanity: heavykeeper must really be the non-lowered one.
  auto chain = MakeChain(names, Variant::kEnetstl);
  ASSERT_NE(chain, nullptr);
  EXPECT_FALSE(chain->stage(1).LowerToKeyOp().has_value());
  EXPECT_TRUE(chain->stage(0).LowerToKeyOp().has_value());
}

// ---------------------------------------------------------------------------
// Differential under fault injection (degraded structures)
// ---------------------------------------------------------------------------

// Forced kick-chain exhaustion during priming parks fingerprints in the
// cuckoo filter's victim stash, so membership takes the degraded
// stash-probing path — which the fused key op must reproduce exactly.
TEST(FusedChainDifferential, DegradedFilterViaFaultInjectionMatches) {
  auto& inj = enetstl::FaultInjector::Global();
  const std::vector<std::string> names = StageNames(4);
  const std::vector<pktgen::Packet> pkts = MakeMix(0, 4096, 384, 55, 19);

  struct Arm {
    const char* name;
    void (*arm)(enetstl::FaultInjector&);
  };
  const Arm kArms[] = {
      {"every-40th",
       [](enetstl::FaultInjector& f) {
         f.ArmEveryNth("cuckoo_filter.add", 40);
       }},
      {"p=0.02 seeded",
       [](enetstl::FaultInjector& f) {
         f.ArmProbability("cuckoo_filter.add", 0.02, 0xfa7);
       }},
  };
  for (const Arm& arm : kArms) {
    // Re-arm identically before each build so both twins prime against the
    // same deterministic fault stream (and disarm before traffic: lookups
    // have no fault point, this degrades construction only).
    inj.Reset();
    arm.arm(inj);
    auto burst_chain = MakeChain(names, Variant::kEnetstl);
    inj.Reset();
    arm.arm(inj);
    auto scalar_chain = MakeChain(names, Variant::kEnetstl);
    inj.Reset();
    ASSERT_NE(burst_chain, nullptr);
    ASSERT_NE(scalar_chain, nullptr);
    ExpectBurstMatchesScalar(*burst_chain, *scalar_chain, pkts, 32, arm.name);
  }
}

// ---------------------------------------------------------------------------
// Obs event-stream / histogram parity
// ---------------------------------------------------------------------------

struct SampledEvent {
  obs::u16 kind;
  u32 flow;
};

// Sampled packet events grouped by scope, each scope's in emission order.
// Control events do not describe packets and are skipped.
std::map<obs::u16, std::vector<SampledEvent>> DrainSampled(
    obs::Telemetry& telemetry) {
  std::map<obs::u16, std::vector<SampledEvent>> events;
  telemetry.ring().Consume([&](const void* data, ebpf::u32 len) {
    if (len != sizeof(obs::ObsEvent)) {
      return;
    }
    obs::ObsEvent event;
    std::memcpy(&event, data, sizeof(event));
    if (event.kind == obs::ObsEvent::kControl) {
      return;
    }
    events[event.scope].push_back({event.kind, event.flow});
  });
  return events;
}

std::vector<u64> SampleCounts(obs::Telemetry& telemetry,
                              ChainExecutor& chain) {
  std::vector<u64> samples;
  for (u32 s = 0; s < chain.depth(); ++s) {
    // Twin chains share scope ids (same chain/stage names), so counts taken
    // between runs need a reset, not separate scopes.
    samples.push_back(
        telemetry
            .Snapshot(telemetry.RegisterScope(
                "chain/" + std::to_string(s) + ":" +
                std::string(chain.stage(s).name())))
            .samples);
  }
  return samples;
}

// Within one scope, the fused burst walk and the scalar walk both emit the
// packets entering that stage in arrival order, so at sample-every=1 each
// scope's flow sequence and sample count must match; only the event kind
// differs (kBurst vs kScalar), and latency values may, since being faster
// is the point.
TEST(FusedChainObs, SampledEventStreamMatchesGeneric) {
  if constexpr (!obs::kCompiledIn) {
    GTEST_SKIP() << "observability compiled out";
  }
  obs::Telemetry& telemetry = obs::Telemetry::Global();
  const std::vector<std::string> names = StageNames(3);
  const std::vector<pktgen::Packet> pkts = MakeMix(1024, 3000, 192, 91, 13);

  auto scalar_chain = MakeChain(names, Variant::kEnetstl);
  auto burst_chain = MakeChain(names, Variant::kEnetstl);
  ASSERT_NE(scalar_chain, nullptr);
  ASSERT_NE(burst_chain, nullptr);

  telemetry.Enable(1);
  (void)DrainSampled(telemetry);  // discard anything older

  telemetry.ResetCounts();
  (void)RunScalar(*scalar_chain, pkts);
  const auto scalar_events = DrainSampled(telemetry);
  const std::vector<u64> scalar_samples =
      SampleCounts(telemetry, *scalar_chain);

  telemetry.ResetCounts();
  (void)RunChain(*burst_chain, pkts, 32);
  const auto burst_events = DrainSampled(telemetry);
  const std::vector<u64> burst_samples = SampleCounts(telemetry, *burst_chain);
  telemetry.Disable();

  ASSERT_EQ(scalar_events.size(), names.size());
  ASSERT_EQ(burst_events.size(), names.size());
  for (const auto& [scope, scalar] : scalar_events) {
    const auto it = burst_events.find(scope);
    ASSERT_NE(it, burst_events.end()) << "scope " << scope;
    const std::vector<SampledEvent>& burst = it->second;
    ASSERT_EQ(scalar.size(), burst.size()) << "scope " << scope;
    for (std::size_t i = 0; i < scalar.size(); ++i) {
      EXPECT_EQ(scalar[i].kind, obs::ObsEvent::kScalar) << i;
      EXPECT_EQ(burst[i].kind, obs::ObsEvent::kBurst) << i;
      EXPECT_EQ(scalar[i].flow, burst[i].flow)
          << "scope " << scope << " event " << i;
    }
  }
  EXPECT_EQ(scalar_samples, burst_samples);
}

// Folding is not a control-plane transition: a loaded chain registers one
// scope per stage and nothing else, and a committed edit that re-folds the
// program emits no control event of its own.
TEST(FusedChainObs, FoldingRegistersNoScopeAndEmitsNoControlEvent) {
  obs::Telemetry& telemetry = obs::Telemetry::Global();
  auto chain = MakeBenchChain(StageNames(2), Variant::kEnetstl, Env(),
                              "fold-scopes");
  ASSERT_NE(chain, nullptr);
  u32 chain_scopes = 0;
  for (const std::string& name : telemetry.ScopeNames()) {
    chain_scopes += name.rfind("fold-scopes/", 0) == 0;
  }
  EXPECT_EQ(chain_scopes, obs::kCompiledIn ? chain->depth() : 0u);

  telemetry.Enable(1);
  const u64 controls_before = telemetry.control_events();
  ASSERT_TRUE(chain
                  ->ReplaceStage(1, NfRegistry::Global().Create(
                                        "vbf-membership", Variant::kEnetstl))
                  .ok);
  EXPECT_EQ(telemetry.control_events(), controls_before);
  telemetry.Disable();
}

// ---------------------------------------------------------------------------
// Fold lifecycle: built at Load(), rebuilt at every committed edit
// ---------------------------------------------------------------------------

TEST(FusedChainCommit, LoadFoldsTheChainBeforeTheFirstBurst) {
  ChainExecutor unloaded("unloaded");
  unloaded.AddStage(NfRegistry::Global().Create("vbf-membership",
                                                Variant::kEnetstl));
  EXPECT_EQ(unloaded.fused_program(), nullptr);
  EXPECT_EQ(unloaded.fusion_stats().generation, 0u);

  auto chain = MakeChain(StageNames(2), Variant::kEnetstl);
  ASSERT_NE(chain, nullptr);
  ASSERT_NE(chain->fused_program(), nullptr);
  EXPECT_EQ(chain->fused_program()->depth(), 2u);
  EXPECT_EQ(chain->fusion_stats().generation, 1u);

  // The very first burst runs the fused program — no warm-up, no
  // thresholds — and matches the scalar walk.
  const std::vector<pktgen::Packet> pkts = MakeMix(0, 2048, 32, 7);
  auto oracle = MakeChain(StageNames(2), Variant::kEnetstl);
  ASSERT_NE(oracle, nullptr);
  ExpectBurstMatchesScalar(*chain, *oracle, pkts, 32, "first burst");
  EXPECT_EQ(chain->fusion_stats().fused_bursts, 1u);
  EXPECT_EQ(chain->fusion_stats().fused_packets, 32u);
}

// A committed replacement re-folds before the next burst: a new program
// object, the next generation, and the next burst runs the new stage.
TEST(FusedChainCommit, ReplaceStageRefoldsBeforeNextBurst) {
  auto chain = MakeChain(StageNames(2), Variant::kEnetstl);
  ASSERT_NE(chain, nullptr);
  const FusedChain* const before = chain->fused_program();
  const u32 gen_before = chain->fusion_stats().generation;

  const std::vector<pktgen::Packet> pkts = MakeMix(0, 2048, 64, 11);
  const std::vector<ebpf::XdpAction> primed = RunChain(*chain, pkts, 32);
  EXPECT_NE(std::count(primed.begin(), primed.end(), ebpf::XdpAction::kPass),
            0);

  // Swap stage 1 for an unprimed vbf (empty table: everything drops there).
  ASSERT_TRUE(chain
                  ->ReplaceStage(1, NfRegistry::Global().Create(
                                        "vbf-membership", Variant::kEnetstl))
                  .ok);
  EXPECT_NE(chain->fused_program(), before);
  EXPECT_EQ(chain->fusion_stats().generation, gen_before + 1);

  const std::vector<ebpf::XdpAction> verdicts = RunChain(*chain, pkts, 32);
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    EXPECT_NE(verdicts[i], ebpf::XdpAction::kPass) << i;
  }
  EXPECT_EQ(verdicts, RunScalar(*chain, pkts));
}

// Load() on a loaded chain rebuilds every program, so it re-folds too.
TEST(FusedChainCommit, LoadRefoldsTheProgram) {
  auto chain = MakeChain(StageNames(3), Variant::kEnetstl);
  ASSERT_NE(chain, nullptr);
  const FusedChain* const before = chain->fused_program();
  const u32 gen_before = chain->fusion_stats().generation;
  ASSERT_TRUE(chain->Load().ok);
  EXPECT_NE(chain->fused_program(), before);
  EXPECT_EQ(chain->fusion_stats().generation, gen_before + 1);

  auto oracle = MakeChain(StageNames(3), Variant::kEnetstl);
  ASSERT_NE(oracle, nullptr);
  ExpectBurstMatchesScalar(*chain, *oracle, MakeMix(1024, 3000, 128, 5, 13),
                           32, "reloaded");
}

// A rejected replacement — bad argument, or a prog-array update that the
// helper refuses — keeps the same program object and generation, and the
// chain keeps serving on it.
TEST(FusedChainCommit, FailedReplacementKeepsProgramAndGeneration) {
  auto chain = MakeChain(StageNames(2), Variant::kEnetstl);
  ASSERT_NE(chain, nullptr);
  const FusedChain* const before = chain->fused_program();
  const u32 gen_before = chain->fusion_stats().generation;
  NetworkFunction* const stage1 = &chain->stage(1);

  EXPECT_FALSE(chain->ReplaceStage(1, nullptr).ok);
  EXPECT_FALSE(chain->ReplaceStage(99, nullptr).ok);
  auto& inj = enetstl::FaultInjector::Global();
  inj.Reset();
  inj.ArmOneShot("helper.prog_array_update", 0);
  EXPECT_FALSE(chain
                   ->ReplaceStage(1, NfRegistry::Global().Create(
                                         "vbf-membership", Variant::kEnetstl))
                   .ok);
  inj.Reset();

  EXPECT_EQ(chain->fused_program(), before);
  EXPECT_EQ(chain->fusion_stats().generation, gen_before);
  EXPECT_EQ(&chain->stage(1), stage1);
  auto oracle = MakeChain(StageNames(2), Variant::kEnetstl);
  ASSERT_NE(oracle, nullptr);
  ExpectBurstMatchesScalar(*chain, *oracle, MakeMix(0, 2048, 64, 13), 32,
                           "after rejected replacements");
}

// ---------------------------------------------------------------------------
// Tail-call budget eligibility
// ---------------------------------------------------------------------------

class PassNf : public NetworkFunction {
 public:
  ebpf::XdpAction Process(ebpf::XdpContext&) override {
    return ebpf::XdpAction::kPass;
  }
  std::string_view name() const override { return "pass"; }
  Variant variant() const override { return Variant::kKernel; }
};

TEST(FusedChainBudget, DepthAtTailCallLimitFusesAndRuns) {
  ChainExecutor chain("deep-33-fused");
  for (u32 i = 0; i < ebpf::kMaxTailCallChain; ++i) {
    chain.AddStage(std::make_unique<PassNf>());
  }
  ASSERT_TRUE(chain.Load().ok);
  ASSERT_NE(chain.fused_program(), nullptr);
  pktgen::Packet pkt = Env().uniform[0];
  ebpf::XdpContext ctx = ContextFor(pkt);
  ebpf::XdpAction verdict;
  chain.ProcessBurst(&ctx, 1, &verdict);
  EXPECT_EQ(verdict, ebpf::XdpAction::kPass);
  EXPECT_EQ(chain.stage_stats().back().pass, 1u);
}

TEST(FusedChainBudget, EligibilityTracksTailCallBudget) {
  EXPECT_TRUE(ebpf::FusionWithinTailCallBudget(1));
  EXPECT_TRUE(ebpf::FusionWithinTailCallBudget(ebpf::kMaxTailCallChain));
  EXPECT_FALSE(ebpf::FusionWithinTailCallBudget(0));
  EXPECT_FALSE(ebpf::FusionWithinTailCallBudget(ebpf::kMaxTailCallChain + 1));
  // FusedChain::Fuse enforces it independently of the executor.
  std::vector<FusedStage> too_deep(ebpf::kMaxTailCallChain + 1);
  EXPECT_EQ(FusedChain::Fuse(std::move(too_deep)), nullptr);
}

}  // namespace
}  // namespace nf
