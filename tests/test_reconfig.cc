// Tests for the live-reconfiguration control plane (nf/reconfig.h): NF hot
// swap through the registry (typed error taxonomy, state transfer,
// dual-write shadow warm-up), structural chain edits at quiescent points,
// rollback bit-identity under injected commit/state-transfer faults (fused
// program untouched, generation unchanged), connection affinity across a
// Katran backend-set swap, obs control events, and the epoch-guard
// serialization of a datapath thread against a control thread (TSan's
// target).
#include "nf/reconfig.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/app_chains.h"
#include "apps/katran_lb.h"
#include "core/fault_injector.h"
#include "nf/chain.h"
#include "nf/heavykeeper.h"
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

std::unique_ptr<ChainExecutor> MakeChain(const std::vector<std::string>& names,
                                         Variant v) {
  return MakeBenchChain(names, v, Env());
}

// Bit-identical primed twin of a bench-chain stage: MakeBenchChain builds
// every stage through MakeVariantSetup, which reseeds the prandom helper, so
// a fresh setup of the same entry is byte-for-byte the stage as loaded.
std::unique_ptr<NetworkFunction> MakeTwin(const std::string& name, Variant v) {
  const NfEntry* entry = NfRegistry::Global().Lookup(name);
  if (entry == nullptr) {
    return nullptr;
  }
  return MakeVariantSetup(*entry, v, Env()).nf;
}

std::vector<pktgen::Packet> MakeMix(u32 first_flow, u32 flow_count,
                                    u32 packets, u32 seed) {
  const std::vector<ebpf::FiveTuple> flows(
      Env().flows.begin() + first_flow,
      Env().flows.begin() + first_flow + flow_count);
  const pktgen::Trace trace = pktgen::MakeUniformTrace(flows, packets, seed);
  return std::vector<pktgen::Packet>(trace.begin(), trace.begin() + packets);
}

// Drives the plane over `pkts` in bursts of `burst`; deep-copies the packets
// so frame state never leaks between runs of twins.
std::vector<ebpf::XdpAction> RunPlane(ChainReconfig& plane,
                                      const std::vector<pktgen::Packet>& pkts,
                                      u32 burst) {
  std::vector<pktgen::Packet> copies = pkts;
  std::vector<ebpf::XdpAction> verdicts(copies.size());
  std::vector<ebpf::XdpContext> ctxs(copies.size());
  for (std::size_t i = 0; i < copies.size(); ++i) {
    ctxs[i] = ContextFor(copies[i]);
  }
  for (std::size_t base = 0; base < copies.size(); base += burst) {
    const u32 n =
        static_cast<u32>(std::min<std::size_t>(burst, copies.size() - base));
    plane.ProcessBurst(ctxs.data() + base, n, verdicts.data() + base);
  }
  return verdicts;
}

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
    const u32 n =
        static_cast<u32>(std::min<std::size_t>(burst, copies.size() - base));
    chain.ProcessBurst(ctxs.data() + base, n, verdicts.data() + base);
  }
  return verdicts;
}

// Fault-point tests share the global injector; always start and end clean.
class Reconfig : public ::testing::Test {
 protected:
  void SetUp() override { enetstl::FaultInjector::Global().Reset(); }
  void TearDown() override { enetstl::FaultInjector::Global().Reset(); }
};

// ---------------------------------------------------------------------------
// Typed error taxonomy
// ---------------------------------------------------------------------------

TEST_F(Reconfig, SwapNfSurfacesRegistryErrorsWithBenchWording) {
  auto chain = MakeChain(StageNames(2), Variant::kEnetstl);
  ASSERT_NE(chain, nullptr);
  ChainReconfig plane(*chain);

  ReconfigResult unknown = plane.SwapNf("no-such-nf", Variant::kEnetstl);
  EXPECT_EQ(unknown.error, ReconfigError::kUnknownNf);
  EXPECT_NE(unknown.message.find("unknown NF 'no-such-nf'"),
            std::string::npos)
      << unknown.message;
  EXPECT_NE(unknown.message.find("registered NFs:"), std::string::npos)
      << unknown.message;

  // skiplist-kv has no pure-eBPF build (P1): construction fails before any
  // stage lookup, with the registry's variant message.
  ReconfigResult variant = plane.SwapNf("skiplist-kv", Variant::kEbpf);
  EXPECT_EQ(variant.error, ReconfigError::kUnsupportedVariant);
  EXPECT_NE(variant.message.find("skiplist-kv"), std::string::npos)
      << variant.message;

  // Constructible NF, but no stage of that name in this chain.
  ReconfigResult stage = plane.SwapNf("heavykeeper", Variant::kEnetstl);
  EXPECT_EQ(stage.error, ReconfigError::kBadStage);
  EXPECT_NE(stage.message.find("heavykeeper"), std::string::npos)
      << stage.message;

  EXPECT_EQ(plane.stats().swaps_committed, 0u);
  EXPECT_EQ(plane.stats().epoch, 0u);
  // The chain is untouched and runnable after every rejection.
  const std::vector<pktgen::Packet> pkts = MakeMix(0, 2048, 64, 3);
  EXPECT_EQ(RunPlane(plane, pkts, 32).size(), pkts.size());
}

TEST_F(Reconfig, ErrorNamesCoverTheTaxonomy) {
  EXPECT_EQ(ReconfigErrorName(ReconfigError::kOk), "ok");
  EXPECT_EQ(ReconfigErrorName(ReconfigError::kUnknownNf), "unknown-nf");
  EXPECT_EQ(ReconfigErrorName(ReconfigError::kUnsupportedVariant),
            "unsupported-variant");
  EXPECT_EQ(ReconfigErrorName(ReconfigError::kBadStage), "bad-stage");
  EXPECT_EQ(ReconfigErrorName(ReconfigError::kBudgetExceeded),
            "budget-exceeded");
  EXPECT_EQ(ReconfigErrorName(ReconfigError::kVerifyFailed), "verify-failed");
  EXPECT_EQ(ReconfigErrorName(ReconfigError::kCommitFault), "commit-fault");
  EXPECT_EQ(ReconfigErrorName(ReconfigError::kStateTransferFailed),
            "state-transfer-failed");
  EXPECT_EQ(ReconfigErrorName(ReconfigError::kEditPending), "edit-pending");
}

// ---------------------------------------------------------------------------
// Hot swap: twin replacement, shadow warm-up, state transfer
// ---------------------------------------------------------------------------

// Swapping a stage for its bit-identical primed twin must not change a
// single verdict against an untouched oracle — the zero-divergence core of
// the chaos harness, pinned here in isolation.
TEST_F(Reconfig, TwinSwapIsVerdictInvisible) {
  const std::vector<std::string> names = StageNames(3);
  auto chain = MakeChain(names, Variant::kEnetstl);
  auto oracle = MakeChain(names, Variant::kEnetstl);
  ASSERT_NE(chain, nullptr);
  ASSERT_NE(oracle, nullptr);
  ChainReconfig plane(*chain);

  const std::vector<pktgen::Packet> pkts = MakeMix(1024, 3000, 256, 17);
  const std::vector<ebpf::XdpAction> before = RunPlane(plane, pkts, 32);
  const std::vector<ebpf::XdpAction> oracle_before =
      RunChain(*oracle, pkts, 32);
  ASSERT_EQ(before, oracle_before);

  SwapOptions now;
  now.warmup_bursts = 0;  // membership stages have no state transfer
  auto twin = MakeTwin("vbf-membership", Variant::kEnetstl);
  ASSERT_NE(twin, nullptr);
  ASSERT_TRUE(plane.SwapNfWith("vbf-membership", std::move(twin), now).ok());
  EXPECT_EQ(plane.stats().swaps_committed, 1u);
  EXPECT_EQ(plane.stats().epoch, 1u);
  EXPECT_GT(plane.stats().last_swap_ns, 0u);

  const std::vector<ebpf::XdpAction> after = RunPlane(plane, pkts, 32);
  EXPECT_EQ(after, RunChain(*oracle, pkts, 32));
}

TEST_F(Reconfig, ShadowWarmupCommitsAtTheBurstBoundary) {
  auto chain = MakeChain(StageNames(2), Variant::kEnetstl);
  ASSERT_NE(chain, nullptr);
  ChainReconfig plane(*chain);
  const std::vector<pktgen::Packet> pkts = MakeMix(0, 2048, 32, 23);

  // Membership NFs export no state, so the swap stages a 3-burst dual-write
  // warm-up instead of committing inline.
  SwapOptions options;
  options.warmup_bursts = 3;
  auto twin = MakeTwin("cuckoo-filter", Variant::kEnetstl);
  ASSERT_NE(twin, nullptr);
  ASSERT_TRUE(
      plane.SwapNfWith("cuckoo-filter", std::move(twin), options).ok());
  EXPECT_TRUE(plane.swap_pending());
  EXPECT_EQ(plane.stats().swaps_committed, 0u);

  // A second control op while the swap is warming is refused, typed.
  EXPECT_EQ(plane.SwapNf("vbf-membership", Variant::kEnetstl).error,
            ReconfigError::kEditPending);
  EXPECT_EQ(plane.InsertStage(0, std::make_unique<PassthroughTap>()).error,
            ReconfigError::kEditPending);
  EXPECT_EQ(plane.RemoveStage(0).error, ReconfigError::kEditPending);

  (void)RunPlane(plane, pkts, 32);  // warm-up burst 1
  EXPECT_TRUE(plane.swap_pending());
  (void)RunPlane(plane, pkts, 32);  // burst 2
  EXPECT_TRUE(plane.swap_pending());
  (void)RunPlane(plane, pkts, 32);  // burst 3: warm-up drains, swap commits
  EXPECT_FALSE(plane.swap_pending());

  const ReconfigStats stats = plane.stats();
  EXPECT_EQ(stats.swaps_committed, 1u);
  EXPECT_EQ(stats.shadow_bursts, 3u);
  EXPECT_EQ(stats.shadow_packets, 3u * 32u);
  EXPECT_EQ(stats.epoch, 1u);
  // Post-commit the plane accepts control ops again.
  EXPECT_TRUE(plane.SwapNfWith("cuckoo-filter",
                               MakeTwin("cuckoo-filter", Variant::kEnetstl),
                               SwapOptions{0, true})
                  .ok());
}

// The Figure-7 integration case live: a Katran backend-set change hot-swaps
// a new KatranLb in, and recorded connections keep their old backend through
// the state transfer (Katran's connection-affinity contract) while fresh
// connections land on the new ring. Exercised on both cores — the blob
// format is family-owned, so an origin-core table imports into an
// eNetSTL-core replacement unchanged.
TEST_F(Reconfig, KatranBackendSwapPreservesConnectionAffinity) {
  apps::RegisterAppNfs();
  for (const apps::CoreKind core :
       {apps::CoreKind::kOrigin, apps::CoreKind::kEnetstl}) {
    ChainExecutor chain("lb");
    apps::KatranConfig config;
    chain.AddStage(std::make_unique<apps::KatranLb>(core, config));
    ASSERT_TRUE(chain.Load().ok);
    ChainReconfig plane(chain);

    auto* lb = dynamic_cast<apps::KatranLb*>(&chain.stage(0));
    ASSERT_NE(lb, nullptr);
    // Record connections for the first 512 flows on the old backend set.
    std::vector<u32> old_backend(512);
    for (u32 f = 0; f < 512; ++f) {
      old_backend[f] = lb->PickBackend(Env().flows[f]);
      EXPECT_LT(old_backend[f], config.num_backends);
    }

    // Swap to a disjoint backend-id set {100..115}.
    std::vector<u32> backends(16);
    for (u32 b = 0; b < 16; ++b) {
      backends[b] = 100 + b;
    }
    const ReconfigResult result = apps::SwapLbBackends(plane, backends);
    ASSERT_TRUE(result.ok()) << result.message;
    EXPECT_EQ(plane.stats().swaps_committed, 1u);
    EXPECT_GT(plane.stats().state_bytes, 0u);
    EXPECT_FALSE(plane.swap_pending()) << "state transfer commits inline";

    auto* swapped = dynamic_cast<apps::KatranLb*>(&chain.stage(0));
    ASSERT_NE(swapped, nullptr);
    ASSERT_NE(swapped, lb) << "stage instance was replaced";
    EXPECT_EQ(swapped->config().backends, backends);
    // Affinity: every recorded connection still hits its old backend...
    const u64 hits_before = swapped->hits();
    for (u32 f = 0; f < 512; ++f) {
      EXPECT_EQ(swapped->PickBackend(Env().flows[f]), old_backend[f]) << f;
    }
    EXPECT_EQ(swapped->hits(), hits_before + 512);
    // ...while a fresh connection lands on the new ring.
    EXPECT_GE(swapped->PickBackend(Env().flows[4000]), 100u);
  }
}

TEST_F(Reconfig, HeavyKeeperSwapPreservesTopK) {
  // The heavykeeper family owns a variant-agnostic state blob (geometry
  // header + buckets + top-k tables), so a hot swap commits inline via state
  // transfer and the replacement's top-K set — flows and estimates — is
  // identical to the exporter's, whatever the variant pairing. Bucket-level
  // Query estimates additionally survive when the pairing shares a hash
  // layout (same-variant swap).
  const std::pair<Variant, Variant> pairings[] = {
      {Variant::kEnetstl, Variant::kEnetstl},
      {Variant::kEnetstl, Variant::kEbpf},
      {Variant::kEbpf, Variant::kKernel},
      {Variant::kKernel, Variant::kEnetstl},
  };
  for (const auto& [from, to] : pairings) {
    SCOPED_TRACE(std::string(VariantName(from)) + " -> " +
                 std::string(VariantName(to)));
    // Build the initial stage through the same registry factory SwapNf uses,
    // so exporter and replacement share sketch geometry.
    NfCreateResult built = NfRegistry::Global().CreateChecked(
        "heavykeeper", from);
    ASSERT_TRUE(built.ok()) << built.message;
    ChainExecutor chain("hk");
    chain.AddStage(std::move(built.nf));
    ASSERT_TRUE(chain.Load().ok);
    ChainReconfig plane(chain);

    // Skewed traffic so a distinctive top-K table forms.
    const std::vector<ebpf::FiveTuple> flows(Env().flows.begin(),
                                             Env().flows.begin() + 1024);
    const pktgen::Trace trace = pktgen::MakeZipfTrace(flows, 8192, 1.2, 71);
    RunPlane(plane,
             std::vector<pktgen::Packet>(trace.begin(), trace.end()), 64);

    auto* before = dynamic_cast<HeavyKeeperBase*>(&chain.stage(0));
    ASSERT_NE(before, nullptr);
    const std::vector<HkTopEntry> top_before = before->TopK();
    u32 populated = 0;
    for (const HkTopEntry& e : top_before) {
      populated += e.est > 0 ? 1 : 0;
    }
    ASSERT_GT(populated, 0u) << "top-K table never filled";
    std::vector<u32> est_before(64);
    for (u32 f = 0; f < 64; ++f) {
      est_before[f] = before->Query(&flows[f], sizeof(flows[f]));
    }

    const ReconfigResult result = plane.SwapNf("heavykeeper", to);
    ASSERT_TRUE(result.ok()) << result.message;
    EXPECT_EQ(plane.stats().swaps_committed, 1u);
    EXPECT_GT(plane.stats().state_bytes, 0u);
    EXPECT_FALSE(plane.swap_pending()) << "state transfer commits inline";
    EXPECT_EQ(plane.stats().shadow_bursts, 0u)
        << "state transfer replaces dual-write warm-up";

    auto* after = dynamic_cast<HeavyKeeperBase*>(&chain.stage(0));
    ASSERT_NE(after, nullptr);
    ASSERT_NE(after, before) << "stage instance was replaced";
    EXPECT_EQ(after->variant(), to);
    const std::vector<HkTopEntry> top_after = after->TopK();
    ASSERT_EQ(top_after.size(), top_before.size());
    for (std::size_t i = 0; i < top_before.size(); ++i) {
      EXPECT_EQ(top_after[i].flow, top_before[i].flow) << "slot " << i;
      EXPECT_EQ(top_after[i].est, top_before[i].est) << "slot " << i;
    }
    if (from == to) {
      for (u32 f = 0; f < 64; ++f) {
        EXPECT_EQ(after->Query(&flows[f], sizeof(flows[f])), est_before[f])
            << "flow " << f;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rollback bit-identity under injected faults
// ---------------------------------------------------------------------------

TEST_F(Reconfig, StateTransferFaultRollsBackUntouched) {
  apps::RegisterAppNfs();
  ChainExecutor chain("lb");
  chain.AddStage(
      std::make_unique<apps::KatranLb>(apps::CoreKind::kEnetstl,
                                       apps::KatranConfig{}));
  ASSERT_TRUE(chain.Load().ok);
  ChainReconfig plane(chain);
  auto* lb = dynamic_cast<apps::KatranLb*>(&chain.stage(0));
  const u32 backend = lb->PickBackend(Env().flows[0]);

  enetstl::FaultInjector::Global().ArmOneShot("reconfig.state_transfer", 0);
  const ReconfigResult result =
      apps::SwapLbBackends(plane, std::vector<u32>{7, 8, 9});
  EXPECT_EQ(result.error, ReconfigError::kStateTransferFailed);
  EXPECT_EQ(plane.stats().swaps_rolled_back, 1u);
  EXPECT_EQ(plane.stats().swaps_committed, 0u);
  EXPECT_EQ(plane.stats().epoch, 0u);
  // Same instance, same recorded connection.
  ASSERT_EQ(dynamic_cast<apps::KatranLb*>(&chain.stage(0)), lb);
  EXPECT_EQ(lb->PickBackend(Env().flows[0]), backend);

  // Disarmed, the identical request commits.
  EXPECT_TRUE(apps::SwapLbBackends(plane, std::vector<u32>{7, 8, 9}).ok());
}

// A commit fault (either the plane's own swap-commit point or the
// prog-array slot update under it) must leave the chain bit-identical —
// including its fused program object and generation counter.
TEST_F(Reconfig, CommitFaultRollsBackWithFusedProgramIntact) {
  for (const char* point : {"reconfig.swap_commit",
                            "helper.prog_array_update"}) {
    enetstl::FaultInjector::Global().Reset();
    const std::vector<std::string> names = StageNames(3);
    auto chain = MakeChain(names, Variant::kEnetstl);
    auto oracle = MakeChain(names, Variant::kEnetstl);
    ASSERT_NE(chain, nullptr) << point;
    ASSERT_NE(oracle, nullptr) << point;
    ChainReconfig plane(*chain);
    const FusedChain* const program_before = chain->fused_program();
    const u32 gen_before = chain->fusion_stats().generation;

    enetstl::FaultInjector::Global().ArmOneShot(point, 0);
    SwapOptions now;
    now.warmup_bursts = 0;
    const ReconfigResult result = plane.SwapNfWith(
        "cuckoo-filter", MakeTwin("cuckoo-filter", Variant::kEnetstl), now);
    EXPECT_EQ(result.error, ReconfigError::kCommitFault) << point;
    EXPECT_EQ(plane.stats().swaps_rolled_back, 1u) << point;
    EXPECT_EQ(plane.stats().epoch, 0u) << point;

    // Bit-identity: same fused program, same generation, and the next
    // bursts match an untouched twin verdict for verdict.
    EXPECT_EQ(chain->fused_program(), program_before) << point;
    EXPECT_EQ(chain->fusion_stats().generation, gen_before) << point;
    const std::vector<pktgen::Packet> pkts = MakeMix(1024, 3000, 192, 29);
    EXPECT_EQ(RunPlane(plane, pkts, 32), RunChain(*oracle, pkts, 32))
        << point;
  }
}

// A staged (shadow warm-up) swap whose deferred commit faults is abandoned
// at the boundary: the chain keeps running the old stage, typed stats only.
TEST_F(Reconfig, ShadowCommitFaultAbandonsTheStagedSwap) {
  auto chain = MakeChain(StageNames(2), Variant::kEnetstl);
  ASSERT_NE(chain, nullptr);
  ChainReconfig plane(*chain);
  NetworkFunction* const original = &chain->stage(0);

  SwapOptions options;
  options.warmup_bursts = 1;
  ASSERT_TRUE(plane
                  .SwapNfWith("cuckoo-filter",
                              MakeTwin("cuckoo-filter", Variant::kEnetstl),
                              options)
                  .ok());
  enetstl::FaultInjector::Global().ArmOneShot("reconfig.swap_commit", 0);
  const std::vector<pktgen::Packet> pkts = MakeMix(0, 2048, 32, 31);
  (void)RunPlane(plane, pkts, 32);  // warm-up drains; commit faults
  EXPECT_FALSE(plane.swap_pending());
  EXPECT_EQ(plane.stats().swaps_committed, 0u);
  EXPECT_EQ(plane.stats().swaps_rolled_back, 1u);
  EXPECT_EQ(&chain->stage(0), original);
  EXPECT_EQ(RunPlane(plane, pkts, 32).size(), pkts.size());
}

// ---------------------------------------------------------------------------
// Structural edits: insert / remove under load
// ---------------------------------------------------------------------------

TEST_F(Reconfig, TapInsertAndRemoveAreVerdictTransparent) {
  const std::vector<std::string> names = StageNames(3);
  auto chain = MakeChain(names, Variant::kEnetstl);
  auto oracle = MakeChain(names, Variant::kEnetstl);
  ASSERT_NE(chain, nullptr);
  ASSERT_NE(oracle, nullptr);
  ChainReconfig plane(*chain);
  const std::vector<pktgen::Packet> pkts = MakeMix(1024, 3000, 256, 37);

  auto tap = std::make_unique<PassthroughTap>();
  PassthroughTap* const tap_ptr = tap.get();
  ASSERT_TRUE(plane.InsertStage(1, std::move(tap)).ok());
  ASSERT_EQ(chain->depth(), 4u);
  EXPECT_EQ(chain->stage(1).name(), "tap");
  EXPECT_EQ(plane.stats().inserts, 1u);

  // The tap forwards everything, so verdicts match the unedited oracle, and
  // its counter observes exactly the survivors of stage 0.
  const std::vector<ebpf::XdpAction> edited = RunPlane(plane, pkts, 32);
  EXPECT_EQ(edited, RunChain(*oracle, pkts, 32));
  EXPECT_EQ(tap_ptr->packets(), chain->stage_stats()[0].pass);
  EXPECT_EQ(chain->stage_stats()[1].in, chain->stage_stats()[1].pass);

  ASSERT_TRUE(plane.RemoveStage(1).ok());
  ASSERT_EQ(chain->depth(), 3u);
  EXPECT_EQ(plane.stats().removes, 1u);
  EXPECT_EQ(plane.stats().epoch, 2u);
  EXPECT_EQ(RunPlane(plane, pkts, 32), RunChain(*oracle, pkts, 32));
}

// Every committed edit re-folds the fused program inside the guard, so the
// next burst runs a program folded from the edited stage set; a refused
// edit keeps the program and its generation.
TEST_F(Reconfig, EditsRefoldTheFusedProgram) {
  auto chain = MakeChain(StageNames(2), Variant::kEnetstl);
  ASSERT_NE(chain, nullptr);
  ChainReconfig plane(*chain);
  const std::vector<pktgen::Packet> pkts = MakeMix(0, 2048, 64, 41);
  const FusedChain* program = chain->fused_program();
  u32 generation = chain->fusion_stats().generation;

  ASSERT_TRUE(plane.InsertStage(2, std::make_unique<PassthroughTap>()).ok());
  EXPECT_NE(chain->fused_program(), program);
  EXPECT_EQ(chain->fused_program()->depth(), 3u);
  EXPECT_EQ(chain->fusion_stats().generation, ++generation);
  program = chain->fused_program();

  // The next burst runs the folded tap: its counter sees the survivors.
  auto* tap = dynamic_cast<PassthroughTap*>(&chain->stage(2));
  ASSERT_NE(tap, nullptr);
  (void)RunPlane(plane, pkts, 64);
  EXPECT_EQ(tap->packets(), chain->stage_stats()[1].pass);
  EXPECT_EQ(chain->stage_stats()[2].in, tap->packets());

  EXPECT_EQ(plane.RemoveStage(7).error, ReconfigError::kBadStage);
  enetstl::FaultInjector::Global().ArmOneShot("helper.prog_array_update", 0);
  EXPECT_EQ(plane.InsertStage(0, std::make_unique<PassthroughTap>()).error,
            ReconfigError::kCommitFault);
  EXPECT_EQ(chain->depth(), 3u);
  EXPECT_EQ(chain->fused_program(), program);
  EXPECT_EQ(chain->fusion_stats().generation, generation);

  ASSERT_TRUE(plane.RemoveStage(2).ok());
  EXPECT_NE(chain->fused_program(), program);
  EXPECT_EQ(chain->fused_program()->depth(), 2u);
  EXPECT_EQ(chain->fusion_stats().generation, ++generation);
  auto oracle = MakeChain(StageNames(2), Variant::kEnetstl);
  ASSERT_NE(oracle, nullptr);
  EXPECT_EQ(RunPlane(plane, pkts, 32), RunChain(*oracle, pkts, 32));
}

TEST_F(Reconfig, EditValidationIsTypedAndCommitsNothing) {
  auto chain = MakeChain(StageNames(2), Variant::kEnetstl);
  ASSERT_NE(chain, nullptr);
  ChainReconfig plane(*chain);

  EXPECT_EQ(plane.InsertStage(99, std::make_unique<PassthroughTap>()).error,
            ReconfigError::kBadStage);
  EXPECT_EQ(plane.InsertStage(0, nullptr).error, ReconfigError::kBadStage);
  EXPECT_EQ(plane.RemoveStage(99).error, ReconfigError::kBadStage);
  EXPECT_EQ(chain->depth(), 2u);
  EXPECT_EQ(plane.stats().epoch, 0u);

  // Tail-call budget: a 33-stage chain refuses a 34th, typed, pre-build.
  ChainExecutor deep("deep-33");
  for (u32 i = 0; i < ebpf::kMaxTailCallChain; ++i) {
    deep.AddStage(std::make_unique<PassthroughTap>());
  }
  ASSERT_TRUE(deep.Load().ok);
  ChainReconfig deep_plane(deep);
  EXPECT_EQ(
      deep_plane.InsertStage(0, std::make_unique<PassthroughTap>()).error,
      ReconfigError::kBudgetExceeded);
  EXPECT_EQ(deep.depth(), ebpf::kMaxTailCallChain);

  // Depth-1 chains cannot lose their only stage.
  ChainExecutor single("single");
  single.AddStage(std::make_unique<PassthroughTap>());
  ASSERT_TRUE(single.Load().ok);
  ChainReconfig single_plane(single);
  EXPECT_EQ(single_plane.RemoveStage(0).error, ReconfigError::kBadStage);
  EXPECT_EQ(single.depth(), 1u);
}

// ---------------------------------------------------------------------------
// Obs control events
// ---------------------------------------------------------------------------

TEST_F(Reconfig, ControlOperationsEmitTypedObsEvents) {
  if constexpr (!obs::kCompiledIn) {
    GTEST_SKIP() << "observability compiled out";
  }
  obs::Telemetry& telemetry = obs::Telemetry::Global();
  auto chain = MakeChain(StageNames(2), Variant::kEnetstl);
  ASSERT_NE(chain, nullptr);
  ChainReconfig plane(*chain);
  const obs::u16 scope = telemetry.RegisterScope("chain/reconfig");
  const u64 controls_before = telemetry.control_events();

  telemetry.Enable(1);
  telemetry.ring().Consume([](const void*, ebpf::u32) {});  // drain
  SwapOptions now;
  now.warmup_bursts = 0;
  ASSERT_TRUE(plane
                  .SwapNfWith("cuckoo-filter",
                              MakeTwin("cuckoo-filter", Variant::kEnetstl),
                              now)
                  .ok());
  ASSERT_TRUE(plane.InsertStage(2, std::make_unique<PassthroughTap>()).ok());
  ASSERT_TRUE(plane.RemoveStage(2).ok());
  enetstl::FaultInjector::Global().ArmOneShot("reconfig.swap_commit", 0);
  ASSERT_FALSE(plane
                   .SwapNfWith("cuckoo-filter",
                               MakeTwin("cuckoo-filter", Variant::kEnetstl),
                               now)
                   .ok());
  telemetry.Disable();

  std::vector<u32> codes;
  telemetry.ring().Consume([&](const void* data, ebpf::u32 len) {
    if (len != sizeof(obs::ObsEvent)) {
      return;
    }
    obs::ObsEvent event;
    std::memcpy(&event, data, sizeof(event));
    if (event.kind == obs::ObsEvent::kControl && event.scope == scope) {
      codes.push_back(event.flow);
    }
  });
  const std::vector<u32> expected = {
      kReconfigSwapBeginCode,  kReconfigSwapCommitCode, kReconfigInsertCode,
      kReconfigRemoveCode,     kReconfigSwapBeginCode,
      kReconfigSwapRollbackCode};
  EXPECT_EQ(codes, expected);
  EXPECT_EQ(telemetry.control_events(), controls_before + expected.size());
}

// ---------------------------------------------------------------------------
// Epoch-guard serialization (the TSan target)
// ---------------------------------------------------------------------------

// A datapath thread bursting through the plane races a control thread firing
// twin swaps and tap insert/remove cycles. The epoch guard must serialize
// them at burst boundaries: every burst's verdict buffer is fully written
// (no sentinel survives — zero loss), every control op lands or fails typed,
// and the executor never tears. TSan sees any mutation that escapes the
// guard, including the fused-program re-fold of every committed operation.
TEST_F(Reconfig, DatapathAndControlThreadsSerializeAtBurstBoundaries) {
  constexpr u32 kBurstSize = 32;
  constexpr u32 kControlRounds = 8;
  auto chain = MakeChain(StageNames(3), Variant::kEnetstl);
  ASSERT_NE(chain, nullptr);
  ChainReconfig plane(*chain);

  const std::vector<pktgen::Packet> pool = MakeMix(0, 4096, 512, 43);
  // The datapath runs until every control round has landed, so the race
  // window always covers real swaps/edits regardless of relative speed.
  std::atomic<bool> control_done{false};
  std::atomic<u64> sentinel_leaks{0};

  std::thread datapath([&] {
    constexpr auto kSentinel = static_cast<ebpf::XdpAction>(0xff);
    std::vector<pktgen::Packet> copies(kBurstSize);
    ebpf::XdpContext ctxs[kBurstSize];
    ebpf::XdpAction verdicts[kBurstSize];
    for (u64 b = 0; !control_done.load(std::memory_order_acquire); ++b) {
      for (u32 i = 0; i < kBurstSize; ++i) {
        copies[i] = pool[(b * kBurstSize + i) % pool.size()];
        ctxs[i] = ContextFor(copies[i]);
        verdicts[i] = kSentinel;
      }
      plane.ProcessBurst(ctxs, kBurstSize, verdicts);
      for (u32 i = 0; i < kBurstSize; ++i) {
        if (verdicts[i] == kSentinel) {
          ++sentinel_leaks;
        }
      }
    }
  });

  std::thread control([&] {
    for (u32 round = 0; round < kControlRounds; ++round) {
      SwapOptions options;
      options.warmup_bursts = round % 3;  // mix inline and shadowed commits
      (void)plane.SwapNfWith(
          "cuckoo-filter", MakeTwin("cuckoo-filter", Variant::kEnetstl),
          options);
      // Only undo an edit that actually landed: with a swap mid-warm-up the
      // insert is refused (kEditPending) and stage 1 is a real NF.
      if (plane.InsertStage(1, std::make_unique<PassthroughTap>()).ok()) {
        EXPECT_TRUE(plane.RemoveStage(1).ok());
      }
      (void)plane.SwapNf("no-such-nf", Variant::kEnetstl);  // typed miss
    }
    control_done.store(true, std::memory_order_release);
  });

  datapath.join();
  control.join();
  EXPECT_EQ(sentinel_leaks.load(), 0u) << "a burst lost packets";
  // The run must have actually exercised reconfiguration under load, and
  // every committed operation re-folded the program exactly once.
  const ReconfigStats stats = plane.stats();
  EXPECT_GT(stats.swaps_committed + stats.swaps_rolled_back, 0u);
  EXPECT_EQ(chain->fusion_stats().generation, 1u + stats.epoch);
  // And the chain is still coherent: one more quiet differential run.
  auto oracle = MakeChain(StageNames(3), Variant::kEnetstl);
  ASSERT_NE(oracle, nullptr);
  const std::vector<pktgen::Packet> pkts = MakeMix(1024, 2048, 128, 47);
  EXPECT_EQ(RunPlane(plane, pkts, 32), RunChain(*oracle, pkts, 32));
}

// An oversized burst (more than kMaxNfBurst packets in one call) runs every
// chunk on the program it started on; a swap committed between two such
// bursts re-folds, and the whole next oversized burst runs on the new
// program — the replacement stage's fresh counters see all of it.
TEST_F(Reconfig, OversizedBurstRunsToCompletionAcrossCommit) {
  constexpr u32 kOversized = 3 * kMaxNfBurst + 7;
  auto chain = MakeChain(StageNames(2), Variant::kEnetstl);
  ASSERT_NE(chain, nullptr);
  ChainReconfig plane(*chain);
  const std::vector<pktgen::Packet> pkts = MakeMix(0, 2048, kOversized, 53);

  const std::vector<ebpf::XdpAction> before = RunPlane(plane, pkts, kOversized);
  EXPECT_EQ(chain->fusion_stats().fused_bursts, 1u);
  EXPECT_EQ(chain->stage_stats()[0].in, kOversized);
  const FusedChain* const program = chain->fused_program();

  SwapOptions now;
  now.warmup_bursts = 0;
  ASSERT_TRUE(plane
                  .SwapNfWith("cuckoo-filter",
                              MakeTwin("cuckoo-filter", Variant::kEnetstl),
                              now)
                  .ok());
  EXPECT_NE(chain->fused_program(), program);
  EXPECT_EQ(chain->stage_stats()[0].in, 0u) << "replacement counters reset";

  const std::vector<ebpf::XdpAction> after = RunPlane(plane, pkts, kOversized);
  EXPECT_EQ(chain->fusion_stats().fused_bursts, 2u);
  EXPECT_EQ(chain->stage_stats()[0].in, kOversized)
      << "every chunk of the post-commit burst ran the new stage";
  EXPECT_EQ(after, before) << "a twin swap must not change verdicts";
}

}  // namespace
}  // namespace nf
