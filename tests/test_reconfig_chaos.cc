// Chaos soak for the live-reconfiguration control plane: a depth-4 eNetSTL
// chain (fused from Load() on) runs >1M packets in 64-packet bursts while a
// seeded scheduler fires >100 reconfiguration events against it — twin hot
// swaps (inline and shadow-warmed), tap insert/remove edits, injected faults at
// every reconfig fault point, malformed control requests, and deliberate
// divergence windows (an unprimed replacement swapped in, then swapped back).
//
// Invariants asserted burst by burst against an untouched twin walked by
// the scalar tail-call path (the oracle):
//  * zero loss — every verdict slot of every burst is written (sentinel
//    prefill), on the chain and the oracle, through every event;
//  * zero verdict divergence outside the deliberate divergence windows —
//    twin swaps, transparent edits, rejected requests, and rolled-back
//    faulted swaps change nothing;
//  * divergence windows are bounded — each closes at the next event boundary
//    (one scheduler period) and comparison resumes exactly;
//  * faulted swaps roll back typed (never abort) and the chain keeps
//    serving.
//
// The seed comes from ENETSTL_CHAOS_SEED (default 1) so CI can soak
// multiple schedules; every run is reproducible from its seed.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/fault_injector.h"
#include "nf/chain.h"
#include "nf/nf_registry.h"
#include "nf/reconfig.h"
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

// splitmix64: one u64 of scheduler state, full-period, seedable from the
// environment. Not the datapath prandom — chaos decisions must not perturb
// NF-internal randomness.
struct ChaosRng {
  u64 state;
  u64 Next() {
    state += 0x9e3779b97f4a7c15ull;
    u64 z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  u32 Below(u32 n) { return static_cast<u32>(Next() % n); }
};

u64 ChaosSeed() {
  const char* env = std::getenv("ENETSTL_CHAOS_SEED");
  if (env == nullptr || env[0] == '\0') {
    return 1;
  }
  return static_cast<u64>(std::strtoull(env, nullptr, 10));
}

std::unique_ptr<NetworkFunction> MakeTwin(const std::string& name) {
  const NfEntry* entry = NfRegistry::Global().Lookup(name);
  if (entry == nullptr) {
    return nullptr;
  }
  return MakeVariantSetup(*entry, Variant::kEnetstl, Env()).nf;
}

TEST(ReconfigChaos, MillionPacketSoakUnderSeededReconfigurationStorm) {
  enetstl::FaultInjector::Global().Reset();
  const u64 seed = ChaosSeed();
  ::testing::Test::RecordProperty("chaos_seed", static_cast<int>(seed));
  ChaosRng rng{seed * 0x2545f4914f6cdd1dull + 1};

  constexpr u32 kBurstSize = 64;
  constexpr u32 kBursts = 18750;       // 1.2M packets
  constexpr u32 kEventPeriod = 150;    // => 125 scheduled events
  constexpr auto kSentinel = static_cast<ebpf::XdpAction>(0xff);

  const std::vector<std::string> names = StageNames(4);
  auto chain = MakeBenchChain(names, Variant::kEnetstl, Env());
  auto oracle = MakeBenchChain(names, Variant::kEnetstl, Env());
  ASSERT_NE(chain, nullptr);
  ASSERT_NE(oracle, nullptr);
  ChainReconfig plane(*chain);
  const u32 generation0 = chain->fusion_stats().generation;

  // Packet pool: the full flow window (resident + non-resident) with every
  // 29th frame's Ethernet header wrecked (kAborted coverage); bursts cycle
  // through it, deep-copying per side so frame state never crosses runs.
  const u32 kPoolSize = 4096;
  const pktgen::Trace trace = pktgen::MakeUniformTrace(
      Env().flows, kPoolSize, static_cast<u32>(seed) ^ 0xc0ffee);
  std::vector<pktgen::Packet> pool(trace.begin(), trace.begin() + kPoolSize);
  for (u32 i = 28; i < kPoolSize; i += 29) {
    std::memset(pool[i].frame, 0, 14);
  }

  u64 total_packets = 0;
  u64 sentinel_leaks = 0;
  u64 verdict_mismatches = 0;
  u64 diverged_bursts = 0;
  u32 events_fired = 0;
  u32 typed_failures = 0;
  u32 fault_events = 0;
  u32 windows_opened = 0;
  u32 windows_closed = 0;
  bool diverged = false;

  pktgen::Packet chain_copy[kBurstSize];
  pktgen::Packet oracle_copy[kBurstSize];
  ebpf::XdpContext chain_ctxs[kBurstSize];
  ebpf::XdpContext oracle_ctxs[kBurstSize];
  ebpf::XdpAction chain_verdicts[kBurstSize];
  ebpf::XdpAction oracle_verdicts[kBurstSize];

  for (u32 burst = 0; burst < kBursts; ++burst) {
    // --- Scheduled reconfiguration event at this boundary ---
    if (burst % kEventPeriod == kEventPeriod - 1) {
      ++events_fired;
      if (diverged) {
        // Close the divergence window first: swap the unprimed stage back
        // for a primed twin. Windows open only with no swap pending, so
        // this commits at the first boundary — one scheduler period is the
        // bound on every window.
        SwapOptions now;
        now.warmup_bursts = 0;
        const ReconfigResult closed =
            plane.SwapNfWith("vbf-membership", MakeTwin("vbf-membership"), now);
        ASSERT_TRUE(closed.ok()) << closed.message << " burst " << burst;
        diverged = false;
        ++windows_closed;
      } else {
        switch (rng.Below(6)) {
          case 0: {  // twin hot swap, inline or shadow-warmed
            SwapOptions options;
            options.warmup_bursts = rng.Below(4);  // 0..3
            const std::string name = names[rng.Below(2)];
            const ReconfigResult r =
                plane.SwapNfWith(name, MakeTwin(name), options);
            if (!r.ok()) {
              EXPECT_EQ(r.error, ReconfigError::kEditPending) << r.message;
              ++typed_failures;
            }
            break;
          }
          case 1: {  // transparent tap insert
            const ReconfigResult r = plane.InsertStage(
                rng.Below(chain->depth() + 1),
                std::make_unique<PassthroughTap>());
            if (!r.ok()) {
              EXPECT_TRUE(r.error == ReconfigError::kEditPending ||
                          r.error == ReconfigError::kBudgetExceeded)
                  << r.message;
              ++typed_failures;
            }
            break;
          }
          case 2: {  // remove a tap (never a real stage)
            u32 tap_pos = chain->depth();
            for (u32 i = 0; i < chain->depth(); ++i) {
              if (chain->stage(i).name() == "tap") {
                tap_pos = i;
                break;
              }
            }
            if (tap_pos < chain->depth()) {
              const ReconfigResult r = plane.RemoveStage(tap_pos);
              if (!r.ok()) {
                EXPECT_EQ(r.error, ReconfigError::kEditPending) << r.message;
                ++typed_failures;
              }
            }
            break;
          }
          case 3: {  // injected fault at a reconfig fault point
            static const char* kPoints[] = {"reconfig.swap_commit",
                                            "reconfig.state_transfer",
                                            "helper.prog_array_update"};
            const char* point = kPoints[rng.Below(3)];
            enetstl::FaultInjector::Global().ArmOneShot(point, 0);
            SwapOptions now;
            now.warmup_bursts = 0;
            const std::string name = names[rng.Below(2)];
            const ReconfigResult r =
                plane.SwapNfWith(name, MakeTwin(name), now);
            EXPECT_FALSE(r.ok()) << point;
            EXPECT_TRUE(r.error == ReconfigError::kCommitFault ||
                        r.error == ReconfigError::kStateTransferFailed ||
                        r.error == ReconfigError::kEditPending)
                << ReconfigErrorName(r.error);
            enetstl::FaultInjector::Global().Reset();
            ++fault_events;
            break;
          }
          case 4: {  // malformed control requests: typed, chain untouched
            EXPECT_EQ(plane.SwapNf("no-such-nf", Variant::kEnetstl).error,
                      ReconfigError::kUnknownNf);
            EXPECT_EQ(plane
                          .InsertStage(chain->depth() + 7,
                                       std::make_unique<PassthroughTap>())
                          .error,
                      ReconfigError::kBadStage);
            ++typed_failures;
            break;
          }
          case 5: {  // open a divergence window: unprimed replacement
            if (!plane.swap_pending()) {
              SwapOptions now;
              now.warmup_bursts = 0;
              auto unprimed = NfRegistry::Global().Create("vbf-membership",
                                                          Variant::kEnetstl);
              const ReconfigResult r = plane.SwapNfWith(
                  "vbf-membership", std::move(unprimed), now);
              ASSERT_TRUE(r.ok()) << r.message;
              diverged = true;
              ++windows_opened;
            }
            break;
          }
        }
      }
    }

    // --- One burst, chain vs oracle, sentinel-prefilled ---
    const u32 base = (burst * kBurstSize) % kPoolSize;
    for (u32 i = 0; i < kBurstSize; ++i) {
      const pktgen::Packet& src = pool[(base + i) % kPoolSize];
      chain_copy[i] = src;
      oracle_copy[i] = src;
      chain_ctxs[i] = ebpf::XdpContext{
          chain_copy[i].frame, chain_copy[i].frame + ebpf::kFrameSize, 0};
      oracle_ctxs[i] = ebpf::XdpContext{
          oracle_copy[i].frame, oracle_copy[i].frame + ebpf::kFrameSize, 0};
      chain_verdicts[i] = kSentinel;
      oracle_verdicts[i] = kSentinel;
    }
    plane.ProcessBurst(chain_ctxs, kBurstSize, chain_verdicts);
    for (u32 i = 0; i < kBurstSize; ++i) {
      oracle_verdicts[i] = oracle->Process(oracle_ctxs[i]);
    }
    total_packets += kBurstSize;

    for (u32 i = 0; i < kBurstSize; ++i) {
      if (chain_verdicts[i] == kSentinel || oracle_verdicts[i] == kSentinel) {
        ++sentinel_leaks;
      }
    }
    if (diverged) {
      ++diverged_bursts;
    } else if (std::memcmp(chain_verdicts, oracle_verdicts,
                           sizeof(chain_verdicts)) != 0) {
      ++verdict_mismatches;
      // Pinpoint the first few for debugging; don't flood on a systematic
      // failure.
      if (verdict_mismatches <= 3) {
        for (u32 i = 0; i < kBurstSize; ++i) {
          EXPECT_EQ(chain_verdicts[i], oracle_verdicts[i])
              << "burst " << burst << " packet " << i << " (seed " << seed
              << ")";
        }
      }
    }
  }

  // A window opened at the final event boundary has no later boundary to
  // close at; close it here so the opened/closed ledger balances.
  if (diverged) {
    SwapOptions now;
    now.warmup_bursts = 0;
    ASSERT_TRUE(
        plane.SwapNfWith("vbf-membership", MakeTwin("vbf-membership"), now)
            .ok());
    diverged = false;
    ++windows_closed;
  }

  // --- Acceptance ---
  EXPECT_GE(total_packets, 1'000'000u);
  EXPECT_GE(events_fired, 100u);
  EXPECT_EQ(sentinel_leaks, 0u) << "packets lost (seed " << seed << ")";
  EXPECT_EQ(verdict_mismatches, 0u)
      << "divergence outside windows (seed " << seed << ")";
  EXPECT_EQ(windows_opened, windows_closed)
      << "a divergence window never closed";
  // Every window is bounded by one scheduler period.
  EXPECT_LE(diverged_bursts, static_cast<u64>(windows_opened) * kEventPeriod);

  const ReconfigStats stats = plane.stats();
  RecordProperty("swaps_committed", static_cast<int>(stats.swaps_committed));
  RecordProperty("swaps_rolled_back",
                 static_cast<int>(stats.swaps_rolled_back));
  RecordProperty("inserts", static_cast<int>(stats.inserts));
  RecordProperty("removes", static_cast<int>(stats.removes));
  RecordProperty("typed_failures", static_cast<int>(typed_failures));
  RecordProperty("fault_events", static_cast<int>(fault_events));
  // The storm must have really reconfigured the chain, in every mode.
  EXPECT_GE(stats.epoch, 20u) << "too few committed operations";
  EXPECT_GT(stats.swaps_committed, 0u);
  EXPECT_GT(stats.swaps_rolled_back, 0u) << "no faulted swap rolled back";
  EXPECT_GT(stats.inserts, 0u);
  EXPECT_GT(stats.removes, 0u);
  EXPECT_GT(fault_events, 0u);
  // Every burst ran the fused program, and every committed operation (and
  // nothing else) re-folded it.
  EXPECT_EQ(chain->fusion_stats().fused_bursts, kBursts);
  EXPECT_EQ(chain->fusion_stats().generation, generation0 + stats.epoch)
      << "a committed operation did not re-fold, or a failed one did";
}

}  // namespace
}  // namespace nf
