// Conntrack/NAT family tests: the arena-backed paired FlowTable (both-tuple
// visibility, lazy expiry, timewheel sweeps, LRU degradation, batched lookup
// purity), the TCP-ish state machine and SNAT rewrites of both engine
// variants, burst/scalar bit-identity under churn (including the 3*64+7
// remainder tail), filter-mode lowering to a fused key op, cross-variant
// state transfer, and burst revalidation of cached lookups after in-burst
// inserts, teardowns and evictions.
#include "nf/conntrack.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/fault_injector.h"
#include "ebpf/helper.h"
#include "ebpf/program.h"
#include "ebpf/verifier.h"
#include "pktgen/flowgen.h"
#include "pktgen/packet.h"

namespace nf {
namespace {

ebpf::FiveTuple TcpFlow(u32 i) {
  ebpf::FiveTuple t;
  t.src_ip = 0x0a000000u + i;
  t.dst_ip = 0xc0a80000u + (i * 7u + 1u);
  t.src_port = static_cast<u16>(1024 + (i % 50000));
  t.dst_port = 443;
  t.protocol = kProtoTcp;
  return t;
}

ebpf::FiveTuple UdpFlow(u32 i) {
  ebpf::FiveTuple t = TcpFlow(i);
  t.protocol = 17;
  return t;
}

pktgen::Packet MakePacket(const ebpf::FiveTuple& t, u8 tcp_flags = 0) {
  pktgen::Packet p = pktgen::Packet::FromTuple(t);
  if (tcp_flags != 0) {
    // TCP flags live at kL4HeaderOffset + 13 = byte 1 of payload word 1.
    p.SetPayloadWord(1, static_cast<u32>(tcp_flags) << 8);
  }
  return p;
}

ebpf::XdpAction RunScalar(NetworkFunction& nf, pktgen::Packet& p) {
  ebpf::XdpContext ctx{p.frame, p.frame + ebpf::kFrameSize, 0};
  return nf.Process(ctx);
}

u32 FrameSrcIp(const pktgen::Packet& p) {
  u32 v;
  std::memcpy(&v, p.frame + ebpf::kIpHeaderOffset + 12, 4);
  return v;
}

u32 FrameDstIp(const pktgen::Packet& p) {
  u32 v;
  std::memcpy(&v, p.frame + ebpf::kIpHeaderOffset + 16, 4);
  return v;
}

u16 FrameSrcPort(const pktgen::Packet& p) {
  u16 v;
  std::memcpy(&v, p.frame + ebpf::kL4HeaderOffset, 2);
  return v;
}

u16 FrameDstPort(const pktgen::Packet& p) {
  u16 v;
  std::memcpy(&v, p.frame + ebpf::kL4HeaderOffset + 2, 2);
  return v;
}

class ConntrackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ebpf::SetCurrentCpu(0);
    enetstl::FaultInjector::Global().Reset();
  }
  void TearDown() override { enetstl::FaultInjector::Global().Reset(); }
};

// ---------------------------------------------------------------------------
// FlowTable (arena engine) unit tests.
// ---------------------------------------------------------------------------

using FlowTableTest = ConntrackTest;

TEST_F(FlowTableTest, PairedInsertVisibleUnderBothTuplesOrNeither) {
  FlowTableConfig config;
  FlowTable table(config);
  const ebpf::FiveTuple fwd = TcpFlow(1);
  const ebpf::FiveTuple rev = FlowTable::ReverseTuple(fwd);
  u32 handle;
  FlowEntry* e = table.Insert(fwd, rev, 77, FlowState::kEstablished, 0, 0, 0,
                              &handle);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(table.live_flows(), 1u);

  u8 dir;
  u32 h2;
  FlowEntry* by_fwd = table.Find(fwd, 1, &dir, &h2);
  ASSERT_EQ(by_fwd, e);
  EXPECT_EQ(dir, 0);
  EXPECT_EQ(h2, handle);

  FlowEntry* by_rev = table.Find(rev, 1, &dir, &h2);
  ASSERT_EQ(by_rev, e);
  EXPECT_EQ(dir, 1);
  EXPECT_EQ(h2, handle);
  EXPECT_EQ(by_rev->value, 77u);

  // Erase through the REVERSE tuple removes both directions (the pairing
  // invariant: a flow is observable under both tuples or neither).
  EXPECT_TRUE(table.Erase(rev));
  EXPECT_EQ(table.FindConst(fwd, 1, &dir), nullptr);
  EXPECT_EQ(table.FindConst(rev, 1, &dir), nullptr);
  EXPECT_EQ(table.live_flows(), 0u);
}

TEST_F(FlowTableTest, LazyExpiryFreesOnLookupWithoutSweep) {
  FlowTableConfig config;
  FlowTable table(config);
  const ebpf::FiveTuple fwd = UdpFlow(3);
  u32 handle;
  ASSERT_NE(table.Insert(fwd, FlowTable::ReverseTuple(fwd), 0,
                         FlowState::kUdpIdle, 0, 0, 0, &handle),
            nullptr);
  const u64 dead = config.udp_timeout_ns + 1;
  // FindConst is pure: reports absent, frees nothing.
  u8 dir;
  EXPECT_EQ(table.FindConst(fwd, dead, &dir), nullptr);
  EXPECT_EQ(table.live_flows(), 1u);
  // Find lazily collects the due pair — no timewheel sweep ran.
  u32 h2;
  EXPECT_EQ(table.Find(fwd, dead, &dir, &h2), nullptr);
  EXPECT_EQ(table.live_flows(), 0u);
  EXPECT_EQ(table.stats().expired_lazy, 1u);
  EXPECT_EQ(table.stats().timeout_evictions, 0u);
}

TEST_F(FlowTableTest, TimewheelSweepEvictsDueFlowsInBatches) {
  FlowTableConfig config;
  FlowTable table(config);
  constexpr u32 kFlows = 300;  // > one AdvanceOneSlot batch
  for (u32 i = 0; i < kFlows; ++i) {
    const ebpf::FiveTuple fwd = TcpFlow(i);
    u32 handle;
    ASSERT_NE(table.Insert(fwd, FlowTable::ReverseTuple(fwd), i,
                           FlowState::kNew, 0, 0, 0, &handle),
              nullptr);
  }
  EXPECT_EQ(table.live_flows(), kFlows);
  const u32 evicted =
      table.Advance(config.new_timeout_ns + 2 * config.wheel_granularity_ns);
  EXPECT_EQ(evicted, kFlows);
  EXPECT_EQ(table.live_flows(), 0u);
  EXPECT_EQ(table.stats().timeout_evictions, kFlows);
}

TEST_F(FlowTableTest, RefreshExtendsLifeAndDeliveryReArmsLazily) {
  FlowTableConfig config;
  FlowTable table(config);
  const ebpf::FiveTuple fwd = TcpFlow(9);
  u32 handle;
  FlowEntry* e = table.Insert(fwd, FlowTable::ReverseTuple(fwd), 0,
                              FlowState::kNew, 0, 0, 0, &handle);
  ASSERT_NE(e, nullptr);
  // Refresh at t1: expiry moves to t1 + new_timeout. The armed timer is NOT
  // re-filed (O(1) refresh); the original delivery must find the flow fresh
  // and re-arm instead of evicting.
  const u64 t1 = config.new_timeout_ns / 2;
  table.Refresh(e, handle, t1);
  EXPECT_EQ(table.Advance(config.new_timeout_ns +
                          2 * config.wheel_granularity_ns),
            0u);
  EXPECT_EQ(table.live_flows(), 1u);
  EXPECT_GE(table.stats().timer_rearms, 1u);
  // Past the refreshed expiry the re-armed timer evicts.
  EXPECT_EQ(table.Advance(t1 + config.new_timeout_ns +
                          2 * config.wheel_granularity_ns),
            1u);
  EXPECT_EQ(table.live_flows(), 0u);
}

TEST_F(FlowTableTest, ArenaExhaustionEvictsLruOldestPairConsistently) {
  FlowTableConfig config;
  config.max_flows = 256;  // exactly one slab: hard capacity
  FlowTable table(config);
  std::vector<ebpf::FiveTuple> flows;
  for (u32 i = 0; i < 256; ++i) {
    flows.push_back(TcpFlow(i));
    u32 handle;
    ASSERT_NE(table.Insert(flows[i], FlowTable::ReverseTuple(flows[i]), i,
                           FlowState::kEstablished, 0, 0, 0, &handle),
              nullptr);
  }
  EXPECT_EQ(table.live_flows(), 256u);
  // Touch flow 0 so flow 1 is the LRU victim.
  u8 dir;
  u32 h;
  ASSERT_NE(table.Find(flows[0], 0, &dir, &h), nullptr);
  table.Refresh(table.Find(flows[0], 0, &dir, &h), h, 0);

  const ebpf::FiveTuple extra = TcpFlow(1000);
  u32 handle;
  ASSERT_NE(table.Insert(extra, FlowTable::ReverseTuple(extra), 1000,
                         FlowState::kEstablished, 0, 0, 0, &handle),
            nullptr);
  EXPECT_EQ(table.stats().lru_evictions, 1u);
  EXPECT_EQ(table.live_flows(), 256u);
  // The victim left under BOTH tuples; the touched flow survived.
  EXPECT_EQ(table.FindConst(flows[1], 0, &dir), nullptr);
  EXPECT_EQ(table.FindConst(FlowTable::ReverseTuple(flows[1]), 0, &dir),
            nullptr);
  EXPECT_NE(table.FindConst(flows[0], 0, &dir), nullptr);
  EXPECT_NE(table.FindConst(extra, 0, &dir), nullptr);
}

TEST_F(FlowTableTest, FaultInjectedAllocationTakesEvictionPath) {
  FlowTableConfig config;
  FlowTable table(config);
  std::vector<ebpf::FiveTuple> flows;
  for (u32 i = 0; i < 4; ++i) {
    flows.push_back(TcpFlow(i));
    u32 handle;
    ASSERT_NE(table.Insert(flows[i], FlowTable::ReverseTuple(flows[i]), i,
                           FlowState::kEstablished, 0, 0, 0, &handle),
              nullptr);
  }
  // Force the -ENOSPC degradation without actually filling the arena.
  enetstl::FaultInjector::Global().ArmOneShot("conntrack.insert", 0);
  const ebpf::FiveTuple extra = TcpFlow(50);
  u32 handle;
  ASSERT_NE(table.Insert(extra, FlowTable::ReverseTuple(extra), 50,
                         FlowState::kEstablished, 0, 0, 0, &handle),
            nullptr);
  EXPECT_EQ(table.stats().lru_evictions, 1u);
  u8 dir;
  EXPECT_EQ(table.FindConst(flows[0], 0, &dir), nullptr);  // oldest evicted
  EXPECT_NE(table.FindConst(extra, 0, &dir), nullptr);
  EXPECT_EQ(table.live_flows(), 4u);
}

TEST_F(FlowTableTest, FindBatchMatchesScalarAndStaysPure) {
  FlowTableConfig config;
  FlowTable table(config);
  // Mixed population: established (long timeout) and one FIN-wait flow that
  // will be due at probe time.
  std::vector<ebpf::FiveTuple> flows;
  for (u32 i = 0; i < 16; ++i) {
    flows.push_back(TcpFlow(i));
    u32 handle;
    ASSERT_NE(table.Insert(flows[i], FlowTable::ReverseTuple(flows[i]), i,
                           i == 5 ? FlowState::kFinWait
                                  : FlowState::kEstablished,
                           0, 0, 0, &handle),
              nullptr);
  }
  const u64 now = config.fin_timeout_ns + 1;  // flow 5 due, others fresh
  ebpf::FiveTuple keys[48];
  u32 n = 0;
  for (u32 i = 0; i < 16; ++i) {
    keys[n++] = flows[i];                            // forward hits
    keys[n++] = FlowTable::ReverseTuple(flows[i]);   // reverse hits
    keys[n++] = TcpFlow(1000 + i);                   // misses
  }
  FlowTable::Lookup looks[48];
  const u64 epoch = table.mutation_epoch();
  table.FindBatch(keys, n, now, looks);
  EXPECT_EQ(table.mutation_epoch(), epoch);   // pure
  EXPECT_EQ(table.live_flows(), 16u);         // due entry NOT collected
  for (u32 i = 0; i < n; ++i) {
    u8 dir;
    const FlowEntry* scalar = table.FindConst(keys[i], now, &dir);
    if (scalar != nullptr) {
      ASSERT_EQ(looks[i].kind, FlowTable::Lookup::kHit) << "i=" << i;
      EXPECT_EQ(looks[i].entry, scalar);
      EXPECT_EQ(looks[i].dir, dir);
    } else if (looks[i].kind != FlowTable::Lookup::kMiss) {
      // Batch may additionally report kExpired where FindConst says absent.
      ASSERT_EQ(looks[i].kind, FlowTable::Lookup::kExpired) << "i=" << i;
      EXPECT_LE(looks[i].entry->expires_ns, now);
    }
  }
  // The due flow shows up as kExpired under both of its tuples.
  u32 expired_seen = 0;
  for (u32 i = 0; i < n; ++i) {
    expired_seen += looks[i].kind == FlowTable::Lookup::kExpired;
  }
  EXPECT_EQ(expired_seen, 2u);
}

TEST_F(FlowTableTest, LeakCheckerSeesZeroLiveSlotsAfterChurnAndClear) {
  ebpf::RefLeakChecker checker;
  FlowTableConfig config;
  config.max_flows = 256;
  FlowTable table(config);
  table.SetLeakChecker(&checker);
  pktgen::Rng rng(0x51ab);
  std::vector<ebpf::FiveTuple> live;
  for (u32 op = 0; op < 4000; ++op) {
    const u32 r = static_cast<u32>(rng.NextBounded(100));
    if (r < 60 || live.empty()) {
      const ebpf::FiveTuple f = TcpFlow(static_cast<u32>(rng.NextU32()));
      u32 handle;
      if (table.Insert(f, FlowTable::ReverseTuple(f), 0,
                       FlowState::kEstablished, 0, 0, 0, &handle) != nullptr) {
        live.push_back(f);
      }
    } else {
      const std::size_t pick = rng.NextBounded(live.size());
      table.Erase(live[pick]);  // may already be LRU-evicted: fine
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  EXPECT_EQ(checker.LiveCount("conntrack.flow"), table.live_flows());
  table.Clear();
  EXPECT_EQ(table.live_flows(), 0u);
  EXPECT_EQ(checker.LiveCount("conntrack.flow"), 0u);
}

// ---------------------------------------------------------------------------
// Conntrack NF: state machine, NAT rewrites, burst equivalence, lowering.
// ---------------------------------------------------------------------------

std::unique_ptr<ConntrackBase> MakeCt(Variant v, const ConntrackConfig& c) {
  if (v == Variant::kEbpf) {
    return std::make_unique<ConntrackEbpf>(c);
  }
  return std::make_unique<ConntrackEnetstl>(c);
}

class ConntrackBothVariants : public ::testing::TestWithParam<Variant> {
 protected:
  void SetUp() override {
    ebpf::SetCurrentCpu(0);
    enetstl::FaultInjector::Global().Reset();
  }
};

TEST_P(ConntrackBothVariants, TcpStateMachineLifecycle) {
  ConntrackConfig config;
  config.mode = CtMode::kTrack;
  auto ct = MakeCt(GetParam(), config);
  const ebpf::FiveTuple fwd = TcpFlow(1);
  const ebpf::FiveTuple rev = FlowTable::ReverseTuple(fwd);

  // SYN-ish first packet creates a NEW flow and passes.
  pktgen::Packet syn = MakePacket(fwd);
  EXPECT_EQ(RunScalar(*ct, syn), ebpf::XdpAction::kPass);
  EXPECT_EQ(ct->created(), 1u);

  // Reply direction promotes to ESTABLISHED.
  pktgen::Packet reply = MakePacket(rev);
  EXPECT_EQ(RunScalar(*ct, reply), ebpf::XdpAction::kPass);
  EXPECT_EQ(ct->hits(), 1u);

  // FIN moves to FIN-wait (short timeout class) but still passes.
  pktgen::Packet fin = MakePacket(fwd, kTcpFin);
  EXPECT_EQ(RunScalar(*ct, fin), ebpf::XdpAction::kPass);

  // RST tears the flow down immediately...
  pktgen::Packet rst = MakePacket(rev, kTcpRst);
  EXPECT_EQ(RunScalar(*ct, rst), ebpf::XdpAction::kPass);
  EXPECT_EQ(ct->torn_down(), 1u);

  // ...so the next forward packet is a miss that re-creates state.
  pktgen::Packet again = MakePacket(fwd);
  EXPECT_EQ(RunScalar(*ct, again), ebpf::XdpAction::kPass);
  EXPECT_EQ(ct->created(), 2u);

  // A stray RST for an unknown flow passes without creating state.
  pktgen::Packet stray = MakePacket(TcpFlow(99), kTcpRst);
  EXPECT_EQ(RunScalar(*ct, stray), ebpf::XdpAction::kPass);
  EXPECT_EQ(ct->created(), 2u);
}

TEST_P(ConntrackBothVariants, UdpFlowsUseIdleTimeoutClass) {
  ConntrackConfig config;
  config.mode = CtMode::kTrack;
  auto ct = MakeCt(GetParam(), config);
  const ebpf::FiveTuple fwd = UdpFlow(2);
  pktgen::Packet p = MakePacket(fwd);
  EXPECT_EQ(RunScalar(*ct, p), ebpf::XdpAction::kPass);
  EXPECT_EQ(ct->created(), 1u);
  // Beyond the UDP idle timeout the flow lazily expires: the packet is a
  // miss that re-creates state.
  ct->SetNow(config.table.udp_timeout_ns + 1);
  pktgen::Packet q = MakePacket(fwd);
  EXPECT_EQ(RunScalar(*ct, q), ebpf::XdpAction::kPass);
  EXPECT_EQ(ct->created(), 2u);
  EXPECT_EQ(ct->misses(), 2u);
}

TEST_P(ConntrackBothVariants, NatRewritesForwardAndReverse) {
  ConntrackConfig config;
  config.mode = CtMode::kNat;
  auto ct = MakeCt(GetParam(), config);
  const ebpf::FiveTuple fwd = TcpFlow(4);

  // Forward packet: source rewritten to the first pool binding.
  pktgen::Packet out = MakePacket(fwd);
  EXPECT_EQ(RunScalar(*ct, out), ebpf::XdpAction::kPass);
  EXPECT_EQ(FrameSrcIp(out), config.nat_ip_base);
  EXPECT_EQ(FrameSrcPort(out), static_cast<u16>(config.nat_port_base));
  EXPECT_EQ(FrameDstIp(out), fwd.dst_ip);  // destination untouched (SNAT)

  // Reply addressed to the binding: destination rewritten back to the
  // original initiator (the netfilter reply-tuple rule).
  ebpf::FiveTuple reply;
  reply.src_ip = fwd.dst_ip;
  reply.dst_ip = config.nat_ip_base;
  reply.src_port = fwd.dst_port;
  reply.dst_port = static_cast<u16>(config.nat_port_base);
  reply.protocol = fwd.protocol;
  pktgen::Packet back = MakePacket(reply);
  EXPECT_EQ(RunScalar(*ct, back), ebpf::XdpAction::kPass);
  EXPECT_EQ(ct->hits(), 1u);
  EXPECT_EQ(FrameDstIp(back), fwd.src_ip);
  EXPECT_EQ(FrameDstPort(back), fwd.src_port);
  EXPECT_EQ(FrameSrcIp(back), fwd.dst_ip);  // source untouched on replies

  // A second flow draws the next binding — bindings are collision-free.
  pktgen::Packet out2 = MakePacket(TcpFlow(5));
  EXPECT_EQ(RunScalar(*ct, out2), ebpf::XdpAction::kPass);
  EXPECT_EQ(FrameSrcPort(out2), static_cast<u16>(config.nat_port_base + 1));
}

INSTANTIATE_TEST_SUITE_P(Variants, ConntrackBothVariants,
                         ::testing::Values(Variant::kEbpf, Variant::kEnetstl),
                         [](const auto& info) {
                           return info.param == Variant::kEbpf ? "eBPF"
                                                               : "eNetSTL";
                         });

using ConntrackNfTest = ConntrackTest;

// Burst/scalar bit-identity under create/refresh/teardown churn, through the
// 3*64+7 remainder tail (satellite: burst remainder tails through the
// conntrack batched lookup path), with LRU capacity pressure so the
// revalidation walk after in-burst mutations is exercised.
TEST_F(ConntrackNfTest, BurstMatchesScalarWithChurnAndRemainderTail) {
  ConntrackConfig config;
  config.mode = CtMode::kTrack;
  config.table.max_flows = 256;  // forces LRU evictions mid-burst
  ConntrackEnetstl burst_ct(config);
  ConntrackEnetstl scalar_ct(config);

  const auto flows = pktgen::MakeFlowPopulation(600, 0xc0ffee);
  pktgen::Rng rng(0xc7a11);
  constexpr u32 kBurst = 3 * 64 + 7;  // 199: three full chunks + tail
  u64 now = 0;
  for (u32 round = 0; round < 12; ++round) {
    std::vector<pktgen::Packet> a(kBurst), b(kBurst);
    for (u32 i = 0; i < kBurst; ++i) {
      ebpf::FiveTuple t = flows[rng.NextBounded(flows.size())];
      if (rng.NextBounded(3) == 0) {
        t = FlowTable::ReverseTuple(t);  // reply direction
      }
      u8 flags = 0;
      const u32 r = static_cast<u32>(rng.NextBounded(100));
      if (r < 4) {
        flags = kTcpRst;
      } else if (r < 10) {
        flags = kTcpFin;
      }
      a[i] = MakePacket(t, flags);
      b[i] = a[i];
    }
    std::vector<ebpf::XdpContext> ctxs(kBurst);
    for (u32 i = 0; i < kBurst; ++i) {
      ctxs[i] = ebpf::XdpContext{a[i].frame, a[i].frame + ebpf::kFrameSize, 0};
    }
    std::vector<ebpf::XdpAction> verdicts(kBurst, ebpf::XdpAction::kAborted);
    burst_ct.ProcessBurst(ctxs.data(), kBurst, verdicts.data());
    for (u32 i = 0; i < kBurst; ++i) {
      EXPECT_EQ(verdicts[i], RunScalar(scalar_ct, b[i]))
          << "round=" << round << " i=" << i;
      EXPECT_EQ(std::memcmp(a[i].frame, b[i].frame, ebpf::kFrameSize), 0)
          << "round=" << round << " i=" << i;
    }
    // Advance both clocks so FIN-wait flows expire between rounds and the
    // kExpired re-probe path runs.
    now += config.table.fin_timeout_ns / 2;
    burst_ct.AdvanceTo(now);
    scalar_ct.SetNow(now);  // scalar twin relies on lazy expiry only
  }
  EXPECT_EQ(burst_ct.hits(), scalar_ct.hits());
  EXPECT_EQ(burst_ct.misses(), scalar_ct.misses());
  EXPECT_EQ(burst_ct.created(), scalar_ct.created());
  EXPECT_EQ(burst_ct.torn_down(), scalar_ct.torn_down());
}

// NAT-mode burst equivalence: rewrites (frame bytes) and binding allocation
// order must match the scalar path exactly.
TEST_F(ConntrackNfTest, NatBurstRewritesMatchScalar) {
  ConntrackConfig config;
  config.mode = CtMode::kNat;
  ConntrackEnetstl burst_ct(config);
  ConntrackEnetstl scalar_ct(config);
  const auto flows = pktgen::MakeFlowPopulation(150, 0xbeef);
  pktgen::Rng rng(0x9a7);
  constexpr u32 kBurst = 199;
  for (u32 round = 0; round < 4; ++round) {
    std::vector<pktgen::Packet> a(kBurst), b(kBurst);
    for (u32 i = 0; i < kBurst; ++i) {
      const ebpf::FiveTuple t = flows[rng.NextBounded(flows.size())];
      const u8 flags =
          rng.NextBounded(100) < 5 ? kTcpRst : static_cast<u8>(0);
      a[i] = MakePacket(t, flags);
      b[i] = a[i];
    }
    std::vector<ebpf::XdpContext> ctxs(kBurst);
    for (u32 i = 0; i < kBurst; ++i) {
      ctxs[i] = ebpf::XdpContext{a[i].frame, a[i].frame + ebpf::kFrameSize, 0};
    }
    std::vector<ebpf::XdpAction> verdicts(kBurst, ebpf::XdpAction::kAborted);
    burst_ct.ProcessBurst(ctxs.data(), kBurst, verdicts.data());
    for (u32 i = 0; i < kBurst; ++i) {
      EXPECT_EQ(verdicts[i], RunScalar(scalar_ct, b[i])) << "i=" << i;
      EXPECT_EQ(std::memcmp(a[i].frame, b[i].frame, ebpf::kFrameSize), 0)
          << "i=" << i;
    }
  }
  EXPECT_EQ(burst_ct.created(), scalar_ct.created());
}

// The two engines (BPF-LRU-map model vs arena) must agree packet-for-packet
// while the flow count stays under capacity (above it their documented
// eviction semantics legitimately differ).
TEST_F(ConntrackNfTest, EnginesAgreeUnderCapacityChurn) {
  ConntrackConfig config;
  config.mode = CtMode::kTrack;
  ConntrackEbpf lhs(config);
  ConntrackEnetstl rhs(config);
  const auto flows = pktgen::MakeFlowPopulation(400, 0x5eed);
  pktgen::Rng rng(0xd1ff);
  u64 now = 0;
  for (u32 i = 0; i < 20000; ++i) {
    ebpf::FiveTuple t = flows[rng.NextBounded(flows.size())];
    if (rng.NextBounded(3) == 0) {
      t = FlowTable::ReverseTuple(t);
    }
    u8 flags = 0;
    const u32 r = static_cast<u32>(rng.NextBounded(100));
    if (r < 3) {
      flags = kTcpRst;
    } else if (r < 8) {
      flags = kTcpFin;
    }
    pktgen::Packet pa = MakePacket(t, flags);
    pktgen::Packet pb = pa;
    ASSERT_EQ(RunScalar(lhs, pa), RunScalar(rhs, pb)) << "i=" << i;
    ASSERT_EQ(std::memcmp(pa.frame, pb.frame, ebpf::kFrameSize), 0);
    if (i % 2000 == 1999) {
      now += config.table.fin_timeout_ns;
      lhs.AdvanceTo(now);
      rhs.AdvanceTo(now);  // also sweeps; verdicts must not depend on it
    }
  }
  EXPECT_EQ(lhs.hits(), rhs.hits());
  EXPECT_EQ(lhs.misses(), rhs.misses());
  EXPECT_EQ(lhs.created(), rhs.created());
  EXPECT_EQ(lhs.torn_down(), rhs.torn_down());
}

TEST_F(ConntrackNfTest, FilterModeLowersToFusedKeyOpTrackAndNatDoNot) {
  ConntrackConfig config;
  config.mode = CtMode::kFilter;
  ConntrackEnetstl filter(config);
  // Pre-populate the membership set directly (the control plane's job).
  std::vector<ebpf::FiveTuple> members;
  for (u32 i = 0; i < 32; ++i) {
    members.push_back(TcpFlow(i));
    u32 handle;
    ASSERT_NE(filter.table().Insert(members[i],
                                    FlowTable::ReverseTuple(members[i]), 0,
                                    FlowState::kEstablished, 0, 0, 0, &handle),
              nullptr);
  }
  auto op = filter.LowerToKeyOp();
  ASSERT_TRUE(op.has_value());
  ebpf::FiveTuple keys[64];
  bool out[64] = {};
  u32 n = 0;
  for (u32 i = 0; i < 16; ++i) {
    keys[n++] = members[i];
    keys[n++] = FlowTable::ReverseTuple(members[i]);
    keys[n++] = TcpFlow(500 + i);
  }
  const u64 epoch = filter.table().mutation_epoch();
  op->contains(keys, n, out);
  EXPECT_EQ(filter.table().mutation_epoch(), epoch);  // side-effect free
  for (u32 i = 0; i < n; ++i) {
    pktgen::Packet p = MakePacket(keys[i]);
    const auto verdict = RunScalar(filter, p);
    EXPECT_EQ(out[i], verdict == ebpf::XdpAction::kPass) << "i=" << i;
  }
  // Stateful modes mutate and rewrite — they must not lower.
  ConntrackConfig track_config;
  track_config.mode = CtMode::kTrack;
  ConntrackEnetstl track(track_config);
  EXPECT_FALSE(track.LowerToKeyOp().has_value());
  ConntrackConfig nat_config;
  nat_config.mode = CtMode::kNat;
  ConntrackEnetstl nat(nat_config);
  EXPECT_FALSE(nat.LowerToKeyOp().has_value());
}

TEST_F(ConntrackNfTest, ExportImportPreservesFlowsAcrossVariants) {
  ConntrackConfig config;
  config.mode = CtMode::kNat;
  ConntrackEbpf src(config);
  // Establish 20 NAT'ed flows on the eBPF-model engine.
  std::vector<ebpf::FiveTuple> flows;
  std::vector<u16> nat_ports;
  for (u32 i = 0; i < 20; ++i) {
    flows.push_back(TcpFlow(i));
    pktgen::Packet p = MakePacket(flows[i]);
    ASSERT_EQ(RunScalar(src, p), ebpf::XdpAction::kPass);
    nat_ports.push_back(FrameSrcPort(p));
  }
  std::vector<u8> blob;
  ASSERT_TRUE(src.ExportState(blob));

  // Hot-swap target: the arena engine. Every existing flow must hit with the
  // SAME binding; the binding counter must carry over.
  ConntrackEnetstl dst(config);
  ASSERT_TRUE(dst.ImportState(blob.data(), blob.size()));
  for (u32 i = 0; i < 20; ++i) {
    pktgen::Packet p = MakePacket(flows[i]);
    ASSERT_EQ(RunScalar(dst, p), ebpf::XdpAction::kPass);
    EXPECT_EQ(FrameSrcPort(p), nat_ports[i]) << "i=" << i;
  }
  EXPECT_EQ(dst.created(), 0u);
  EXPECT_EQ(dst.hits(), 20u);
  // A new flow draws the NEXT counter value, not a colliding reused one.
  pktgen::Packet fresh = MakePacket(TcpFlow(900));
  ASSERT_EQ(RunScalar(dst, fresh), ebpf::XdpAction::kPass);
  EXPECT_EQ(FrameSrcPort(fresh), static_cast<u16>(config.nat_port_base + 20));

  // Round-trip the other way (arena -> LRU-map model).
  std::vector<u8> blob2;
  ASSERT_TRUE(dst.ExportState(blob2));
  ConntrackEbpf back(config);
  ASSERT_TRUE(back.ImportState(blob2.data(), blob2.size()));
  for (u32 i = 0; i < 20; ++i) {
    pktgen::Packet p = MakePacket(flows[i]);
    ASSERT_EQ(RunScalar(back, p), ebpf::XdpAction::kPass);
    EXPECT_EQ(FrameSrcPort(p), nat_ports[i]) << "i=" << i;
  }
  EXPECT_EQ(back.created(), 0u);

  // Truncated blobs are rejected.
  ConntrackEnetstl reject(config);
  EXPECT_FALSE(reject.ImportState(blob.data(), blob.size() - 5));
  EXPECT_FALSE(reject.ImportState(blob.data(), 3));
}

// ---------------------------------------------------------------------------
// Burst revalidation: FindBatch results consumed after earlier packets of the
// same burst inserted or released flows, against a per-packet twin.
// ---------------------------------------------------------------------------

using ConntrackBurst = ConntrackTest;

// Runs `packets` as one ProcessBurst on `burst_ct` and one Process per packet
// on `scalar_ct`, then expects identical verdicts, rewritten frames,
// counters and exported state.
void ExpectBurstMatchesTwin(ConntrackEnetstl& burst_ct,
                            ConntrackEnetstl& scalar_ct,
                            const std::vector<pktgen::Packet>& packets) {
  std::vector<pktgen::Packet> a = packets;
  std::vector<pktgen::Packet> b = packets;
  const u32 n = static_cast<u32>(packets.size());
  std::vector<ebpf::XdpContext> ctxs(n);
  for (u32 i = 0; i < n; ++i) {
    ctxs[i] = ebpf::XdpContext{a[i].frame, a[i].frame + ebpf::kFrameSize, 0};
  }
  std::vector<ebpf::XdpAction> verdicts(n, ebpf::XdpAction::kAborted);
  burst_ct.ProcessBurst(ctxs.data(), n, verdicts.data());
  for (u32 i = 0; i < n; ++i) {
    EXPECT_EQ(verdicts[i], RunScalar(scalar_ct, b[i])) << "i=" << i;
    EXPECT_EQ(std::memcmp(a[i].frame, b[i].frame, ebpf::kFrameSize), 0)
        << "i=" << i;
  }
  EXPECT_EQ(burst_ct.hits(), scalar_ct.hits());
  EXPECT_EQ(burst_ct.misses(), scalar_ct.misses());
  EXPECT_EQ(burst_ct.created(), scalar_ct.created());
  EXPECT_EQ(burst_ct.torn_down(), scalar_ct.torn_down());
  EXPECT_EQ(burst_ct.dropped(), scalar_ct.dropped());
  std::vector<u8> burst_state;
  std::vector<u8> scalar_state;
  ASSERT_TRUE(burst_ct.ExportState(burst_state));
  ASSERT_TRUE(scalar_ct.ExportState(scalar_state));
  EXPECT_EQ(burst_state, scalar_state);
}

// Opens `flows` on both tables, one scalar SYN each, in order.
void OpenOnBoth(ConntrackEnetstl& x, ConntrackEnetstl& y,
                const std::vector<ebpf::FiveTuple>& flows) {
  for (const ebpf::FiveTuple& t : flows) {
    pktgen::Packet p = MakePacket(t, kTcpSyn);
    pktgen::Packet q = p;
    ASSERT_EQ(RunScalar(x, p), ebpf::XdpAction::kPass);
    ASSERT_EQ(RunScalar(y, q), ebpf::XdpAction::kPass);
  }
}

u32 HandleOf(FlowTable& table, const ebpf::FiveTuple& key, u64 now_ns) {
  u8 dir = 0;
  u32 handle = FlowTable::kNullRef;
  return table.Find(key, now_ns, &dir, &handle) != nullptr ? handle
                                                          : FlowTable::kNullRef;
}

// RST of A frees its slot; the SYN of C right after takes the same slot
// (LIFO). A's cached hit then names a live slot holding another flow.
TEST_F(ConntrackBurst, RstThenSynReusingTheSlotMatchesScalar) {
  for (const CtMode mode : {CtMode::kTrack, CtMode::kNat}) {
    ConntrackConfig config;
    config.mode = mode;
    ConntrackEnetstl burst_ct(config);
    ConntrackEnetstl scalar_ct(config);
    const ebpf::FiveTuple a = TcpFlow(1);
    const ebpf::FiveTuple b = TcpFlow(2);
    const ebpf::FiveTuple c = TcpFlow(3);
    OpenOnBoth(burst_ct, scalar_ct, {a, b});
    const u32 a_slot = HandleOf(burst_ct.table(), a, 0);
    ASSERT_NE(a_slot, FlowTable::kNullRef);
    ExpectBurstMatchesTwin(
        burst_ct, scalar_ct,
        {MakePacket(a), MakePacket(a, kTcpRst), MakePacket(c, kTcpSyn),
         MakePacket(a), MakePacket(c), MakePacket(b),
         MakePacket(FlowTable::ReverseTuple(a)), MakePacket(a, kTcpRst)});
    EXPECT_EQ(HandleOf(burst_ct.table(), c, 0), a_slot)
        << "C must reuse A's slot for the case to be exercised";
  }
}

// A reply-direction packet of a flow torn down earlier in the same burst:
// its cached reverse hit is gone, so it misses and opens a flow of its own.
TEST_F(ConntrackBurst, ReplyAfterInBurstTeardownMatchesScalar) {
  ConntrackConfig config;
  config.mode = CtMode::kTrack;
  ConntrackEnetstl burst_ct(config);
  ConntrackEnetstl scalar_ct(config);
  const ebpf::FiveTuple a = TcpFlow(7);
  const ebpf::FiveTuple reply = FlowTable::ReverseTuple(a);
  OpenOnBoth(burst_ct, scalar_ct, {a, TcpFlow(8)});
  ExpectBurstMatchesTwin(
      burst_ct, scalar_ct,
      {MakePacket(reply), MakePacket(a, kTcpRst), MakePacket(reply),
       MakePacket(a), MakePacket(reply, kTcpRst), MakePacket(a)});
}

// Full table: the burst's first SYN evicts the LRU-oldest flow, which later
// packets of the burst had cached as a hit (and whose slot the new flow
// takes). Each miss after that evicts the next oldest.
TEST_F(ConntrackBurst, InsertEvictingACachedHitMatchesScalar) {
  ConntrackConfig config;
  config.mode = CtMode::kNat;
  config.table.max_flows = 256;  // one slab: the 257th flow evicts
  ConntrackEnetstl burst_ct(config);
  ConntrackEnetstl scalar_ct(config);
  std::vector<ebpf::FiveTuple> flows;
  for (u32 i = 0; i < 256; ++i) {
    flows.push_back(TcpFlow(i));
  }
  OpenOnBoth(burst_ct, scalar_ct, flows);
  ASSERT_EQ(burst_ct.table().live_flows(), 256u);
  ExpectBurstMatchesTwin(
      burst_ct, scalar_ct,
      {MakePacket(flows[1]), MakePacket(flows[0]),
       MakePacket(TcpFlow(1000), kTcpSyn), MakePacket(flows[0]),
       MakePacket(flows[1]), MakePacket(flows[2]), MakePacket(flows[3]),
       MakePacket(TcpFlow(1000))});
  EXPECT_GT(burst_ct.table().stats().lru_evictions, 0u);
  EXPECT_EQ(burst_ct.table().stats().lru_evictions,
            scalar_ct.table().stats().lru_evictions);
}

// kNat reply tuples come from the binding, so a later flow's reply tuple can
// equal the key of a live flow cached as a hit. The new flow goes to the
// head of that key's chain and shadows the cached entry: per packet, the
// next packet with that key resolves to the new flow, in reply direction.
TEST_F(ConntrackBurst, NatReplyTupleShadowingACachedHitMatchesScalar) {
  ConntrackConfig config;
  config.mode = CtMode::kNat;
  ConntrackEnetstl burst_ct(config);
  ConntrackEnetstl scalar_ct(config);
  // Flow E takes binding 0, so the next new flow F takes binding 1. F's
  // reply tuple is {F.dst -> binding 1}, with F.dst_port as source port;
  // E's forward key is chosen to be exactly that tuple.
  const u32 outside = 0xc6336401u;
  ebpf::FiveTuple e_key;
  e_key.src_ip = outside;
  e_key.dst_ip = config.nat_ip_base;
  e_key.src_port = 4242;
  e_key.dst_port = static_cast<u16>(config.nat_port_base + 1);
  e_key.protocol = kProtoTcp;
  ebpf::FiveTuple f_key;
  f_key.src_ip = 0x0a000909u;
  f_key.dst_ip = outside;
  f_key.src_port = 5555;
  f_key.dst_port = 4242;
  f_key.protocol = kProtoTcp;
  OpenOnBoth(burst_ct, scalar_ct, {e_key});
  ExpectBurstMatchesTwin(burst_ct, scalar_ct,
                         {MakePacket(e_key), MakePacket(f_key, kTcpSyn),
                          MakePacket(e_key), MakePacket(f_key),
                          MakePacket(e_key)});
  // The case is exercised only if E's key now resolves to F's reply side.
  u8 dir = 0;
  u32 handle = 0;
  const FlowEntry* e = burst_ct.table().Find(e_key, 0, &dir, &handle);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(dir, 1);
  EXPECT_EQ(e->key[0], f_key);
}

// A state change that shortens the flow's life to zero: the FIN makes the
// flow due at the burst's own clock, without any insert or release, so the
// next packet of the flow must find it expired, free it and open a new flow
// (as Find does per packet) instead of reusing its cached hit.
TEST_F(ConntrackBurst, StateChangeExpiringACachedHitMatchesScalar) {
  ConntrackConfig config;
  config.mode = CtMode::kTrack;
  config.table.fin_timeout_ns = 0;
  ConntrackEnetstl burst_ct(config);
  ConntrackEnetstl scalar_ct(config);
  const ebpf::FiveTuple a = TcpFlow(11);
  OpenOnBoth(burst_ct, scalar_ct, {a, TcpFlow(12)});
  ExpectBurstMatchesTwin(
      burst_ct, scalar_ct,
      {MakePacket(a), MakePacket(a, kTcpFin), MakePacket(a),
       MakePacket(FlowTable::ReverseTuple(a)), MakePacket(TcpFlow(12))});
  EXPECT_EQ(burst_ct.table().stats().expired_lazy, 1u);
}

// Randomized churn at a burst size of 3*32+7 (one full chunk plus a tail):
// SYNs of new flows, RSTs, FINs, reply-direction packets, and a small table
// so inserts evict mid-burst, in both stateful modes.
TEST_F(ConntrackBurst, ChurnAtBurstSize103MatchesScalar) {
  for (const CtMode mode : {CtMode::kTrack, CtMode::kNat}) {
    ConntrackConfig config;
    config.mode = mode;
    config.table.max_flows = 256;
    ConntrackEnetstl burst_ct(config);
    ConntrackEnetstl scalar_ct(config);
    const auto flows = pktgen::MakeFlowPopulation(400, 0x5eed103);
    pktgen::Rng rng(0x103);
    constexpr u32 kBurst = 3 * 32 + 7;
    u64 now = 0;
    for (u32 round = 0; round < 24; ++round) {
      std::vector<pktgen::Packet> packets(kBurst);
      for (u32 i = 0; i < kBurst; ++i) {
        ebpf::FiveTuple t = flows[rng.NextBounded(flows.size())];
        t.protocol = kProtoTcp;
        if (mode == CtMode::kTrack && rng.NextBounded(4) == 0) {
          t = FlowTable::ReverseTuple(t);
        }
        const u32 r = static_cast<u32>(rng.NextBounded(100));
        const u8 flags = r < 8    ? kTcpRst
                         : r < 14 ? kTcpFin
                         : r < 30 ? kTcpSyn
                                  : kTcpAck;
        packets[i] = MakePacket(t, flags);
      }
      SCOPED_TRACE("round " + std::to_string(round));
      ExpectBurstMatchesTwin(burst_ct, scalar_ct, packets);
      // Both twins see the same clock. Most rounds step a little and sweep
      // (with a full table, which flows the sweep has freed decides which
      // ones an insert evicts); every sixth jumps past the NEW timeout
      // without sweeping, so the next burst meets due entries and frees
      // them lazily.
      if (round % 6 == 5) {
        now += config.table.new_timeout_ns;
        burst_ct.SetNow(now);
        scalar_ct.SetNow(now);
      } else {
        now += config.table.fin_timeout_ns / 8;
        burst_ct.AdvanceTo(now);
        scalar_ct.AdvanceTo(now);
      }
    }
    EXPECT_GT(burst_ct.table().stats().lru_evictions, 0u);
    EXPECT_GT(burst_ct.table().stats().expired_lazy +
                  burst_ct.table().stats().timeout_evictions,
              0u);
    EXPECT_GT(burst_ct.torn_down(), 0u);
  }
}

}  // namespace
}  // namespace nf
