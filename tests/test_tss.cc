// Tests for the tuple-space-search classifier: exact-match and wildcard
// rules, priority resolution across tuples, rule updates, and variant
// equivalence on the kernel/eNetSTL pair (shared CRC hashing).
#include "nf/tss.h"

#include <gtest/gtest.h>

#include <memory>

#include "pktgen/flowgen.h"
#include "pktgen/pipeline.h"

namespace nf {
namespace {

enum class Kind { kEbpf, kKernel, kEnetstl };

std::unique_ptr<TssBase> Make(Kind kind, const TssConfig& config) {
  switch (kind) {
    case Kind::kEbpf:
      return std::make_unique<TssEbpf>(config);
    case Kind::kKernel:
      return std::make_unique<TssKernel>(config);
    case Kind::kEnetstl:
      return std::make_unique<TssEnetstl>(config);
  }
  return nullptr;
}

ebpf::FiveTuple PacketOf(u32 src, u32 dst, ebpf::u16 sport, ebpf::u16 dport,
                         ebpf::u8 proto) {
  ebpf::FiveTuple t;
  t.src_ip = src;
  t.dst_ip = dst;
  t.src_port = sport;
  t.dst_port = dport;
  t.protocol = proto;
  return t;
}

ebpf::FiveTuple FullMask() {
  ebpf::FiveTuple m;
  m.src_ip = 0xffffffffu;
  m.dst_ip = 0xffffffffu;
  m.src_port = 0xffff;
  m.dst_port = 0xffff;
  m.protocol = 0xff;
  for (auto& b : m.pad) {
    b = 0xff;
  }
  return m;
}

ebpf::FiveTuple DstPortOnlyMask() {
  ebpf::FiveTuple m{};
  m.dst_port = 0xffff;
  return m;
}

ebpf::FiveTuple SrcIpOnlyMask() {
  ebpf::FiveTuple m{};
  m.src_ip = 0xffffffffu;
  return m;
}

class TssAllVariants : public ::testing::TestWithParam<Kind> {};

TEST_P(TssAllVariants, ExactMatchRule) {
  TssConfig config;
  auto tss = Make(GetParam(), config);
  const auto pkt = PacketOf(1, 2, 10, 80, 6);
  TssRule rule{pkt, FullMask(), /*priority=*/5, /*action=*/77};
  ASSERT_TRUE(tss->AddRule(rule));
  EXPECT_EQ(tss->Classify(pkt), std::optional<u32>(77));
  EXPECT_EQ(tss->Classify(PacketOf(1, 2, 10, 81, 6)), std::nullopt);
  EXPECT_EQ(tss->num_tuples(), 1u);
}

TEST_P(TssAllVariants, WildcardRuleMatchesBroadly) {
  TssConfig config;
  auto tss = Make(GetParam(), config);
  // Match every TCP packet to port 443, whatever the addresses.
  TssRule rule{PacketOf(0, 0, 0, 443, 0), DstPortOnlyMask(), 1, 10};
  ASSERT_TRUE(tss->AddRule(rule));
  EXPECT_EQ(tss->Classify(PacketOf(9, 9, 999, 443, 6)), std::optional<u32>(10));
  EXPECT_EQ(tss->Classify(PacketOf(3, 4, 5, 443, 17)), std::optional<u32>(10));
  EXPECT_EQ(tss->Classify(PacketOf(9, 9, 999, 80, 6)), std::nullopt);
}

TEST_P(TssAllVariants, HighestPriorityWinsAcrossTuples) {
  TssConfig config;
  auto tss = Make(GetParam(), config);
  const auto pkt = PacketOf(100, 200, 1234, 443, 6);
  // Three overlapping rules in three different tuples.
  ASSERT_TRUE(tss->AddRule({PacketOf(0, 0, 0, 443, 0), DstPortOnlyMask(),
                            /*priority=*/1, /*action=*/11}));
  ASSERT_TRUE(tss->AddRule({PacketOf(100, 0, 0, 0, 0), SrcIpOnlyMask(),
                            /*priority=*/9, /*action=*/22}));
  ASSERT_TRUE(tss->AddRule({pkt, FullMask(), /*priority=*/5, /*action=*/33}));
  EXPECT_EQ(tss->num_tuples(), 3u);
  EXPECT_EQ(tss->Classify(pkt), std::optional<u32>(22));  // priority 9 wins
  // A packet matching only the port rule gets action 11.
  EXPECT_EQ(tss->Classify(PacketOf(5, 5, 5, 443, 17)), std::optional<u32>(11));
}

TEST_P(TssAllVariants, RuleUpdateInPlace) {
  TssConfig config;
  auto tss = Make(GetParam(), config);
  const auto pkt = PacketOf(1, 1, 1, 1, 1);
  ASSERT_TRUE(tss->AddRule({pkt, FullMask(), 1, 100}));
  ASSERT_TRUE(tss->AddRule({pkt, FullMask(), 2, 200}));  // same masked key
  EXPECT_EQ(tss->Classify(pkt), std::optional<u32>(200));
  EXPECT_EQ(tss->num_tuples(), 1u);
}

TEST_P(TssAllVariants, ManyRulesAcrossManyTuples) {
  TssConfig config;
  config.buckets_per_tuple = 1024;
  auto tss = Make(GetParam(), config);
  // 16 tuples: mask on dst_port with distinct protocols-bit patterns.
  pktgen::Rng rng(64);
  u32 added = 0;
  for (u32 t = 0; t < 16; ++t) {
    // Distinct mask per t (the dst_ip mask bits encode t), so exactly 16
    // tuples are created.
    ebpf::FiveTuple mask{};
    mask.dst_port = 0xffff;
    mask.dst_ip = 0xffff0000u | t;
    mask.protocol = (t % 2) ? 0xff : 0;
    for (u32 r = 0; r < 40; ++r) {
      ebpf::FiveTuple key = PacketOf(rng.NextU32(), rng.NextU32(),
                                     static_cast<ebpf::u16>(rng.NextU32()),
                                     static_cast<ebpf::u16>(t * 100 + r), 6);
      // Mask the key so it is a canonical tuple member.
      if (tss->AddRule({key, mask, t * 100 + r, t * 1000 + r})) {
        ++added;
        // The original packet must match its own rule.
        const auto result = tss->Classify(key);
        ASSERT_TRUE(result.has_value());
      }
    }
  }
  EXPECT_GT(added, 600u);
  EXPECT_EQ(tss->num_tuples(), 16u);
}

TEST_P(TssAllVariants, PacketPathPassesMatches) {
  TssConfig config;
  auto tss = Make(GetParam(), config);
  const auto flows = pktgen::MakeFlowPopulation(4, 11);
  ASSERT_TRUE(tss->AddRule({flows[0], FullMask(), 1, 42}));
  auto match = pktgen::Packet::FromTuple(flows[0]);
  ebpf::XdpContext ctx{match.frame, match.frame + ebpf::kFrameSize, 0};
  EXPECT_EQ(tss->Process(ctx), ebpf::XdpAction::kPass);
  auto miss = pktgen::Packet::FromTuple(flows[1]);
  ebpf::XdpContext ctx2{miss.frame, miss.frame + ebpf::kFrameSize, 0};
  EXPECT_EQ(tss->Process(ctx2), ebpf::XdpAction::kDrop);
}

INSTANTIATE_TEST_SUITE_P(Variants, TssAllVariants,
                         ::testing::Values(Kind::kEbpf, Kind::kKernel,
                                           Kind::kEnetstl),
                         [](const auto& info) {
                           switch (info.param) {
                             case Kind::kEbpf:
                               return "eBPF";
                             case Kind::kKernel:
                               return "Kernel";
                             default:
                               return "eNetSTL";
                           }
                         });

TEST(TssEquivalence, KernelAndEnetstlAgree) {
  TssConfig config;
  TssKernel kern(config);
  TssEnetstl stl(config);
  pktgen::Rng rng(71);
  const ebpf::FiveTuple masks[3] = {FullMask(), DstPortOnlyMask(),
                                    SrcIpOnlyMask()};
  for (int i = 0; i < 300; ++i) {
    const TssRule rule{
        PacketOf(rng.NextU32() % 100, rng.NextU32(), 0,
                 static_cast<ebpf::u16>(rng.NextBounded(50)), 6),
        masks[rng.NextBounded(3)], static_cast<u32>(rng.NextBounded(100)),
        static_cast<u32>(i)};
    ASSERT_EQ(kern.AddRule(rule), stl.AddRule(rule));
  }
  for (int i = 0; i < 3000; ++i) {
    const auto pkt = PacketOf(rng.NextU32() % 100, rng.NextU32(), 0,
                              static_cast<ebpf::u16>(rng.NextBounded(50)), 6);
    ASSERT_EQ(kern.Classify(pkt), stl.Classify(pkt));
  }
}

}  // namespace
}  // namespace nf
