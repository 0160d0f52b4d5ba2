// Tests for the vector-of-bloom-filters membership NF: no false negatives
// per set, bounded cross-set leakage, and exact three-way variant
// equivalence (all variants share the same lane-hash family).
#include "nf/vbf.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "pktgen/flowgen.h"
#include "pktgen/pipeline.h"

namespace nf {
namespace {

enum class Kind { kEbpf, kKernel, kEnetstl };

std::unique_ptr<VbfBase> Make(Kind kind, const VbfConfig& config) {
  switch (kind) {
    case Kind::kEbpf:
      return std::make_unique<VbfEbpf>(config);
    case Kind::kKernel:
      return std::make_unique<VbfKernel>(config);
    case Kind::kEnetstl:
      return std::make_unique<VbfEnetstl>(config);
  }
  return nullptr;
}

class VbfAllVariants : public ::testing::TestWithParam<Kind> {};

TEST_P(VbfAllVariants, AddedKeyFoundInItsSet) {
  VbfConfig config;
  auto vbf = Make(GetParam(), config);
  const u64 key = 0xfeedface;
  vbf->AddToSet(&key, 8, 3);
  const u32 sets = vbf->LookupSets(&key, 8);
  EXPECT_TRUE(sets & (1u << 3));
}

TEST_P(VbfAllVariants, MultipleSetMembershipAccumulates) {
  VbfConfig config;
  auto vbf = Make(GetParam(), config);
  const u64 key = 0x12345;
  vbf->AddToSet(&key, 8, 0);
  vbf->AddToSet(&key, 8, 5);
  vbf->AddToSet(&key, 8, 15);
  const u32 sets = vbf->LookupSets(&key, 8);
  EXPECT_TRUE(sets & (1u << 0));
  EXPECT_TRUE(sets & (1u << 5));
  EXPECT_TRUE(sets & (1u << 15));
}

TEST_P(VbfAllVariants, OutOfRangeSetIgnored) {
  VbfConfig config;
  config.num_sets = 8;
  auto vbf = Make(GetParam(), config);
  const u64 key = 9;
  vbf->AddToSet(&key, 8, 30);  // >= num_sets: dropped
  EXPECT_EQ(vbf->LookupSets(&key, 8) & (1u << 30), 0u);
}

TEST_P(VbfAllVariants, NoFalseNegativesUnderLoad) {
  VbfConfig config;
  config.positions = 1u << 16;
  auto vbf = Make(GetParam(), config);
  pktgen::Rng rng(13);
  std::vector<std::pair<u64, u32>> added;
  for (int i = 0; i < 3000; ++i) {
    const u64 key = rng.NextU64();
    const u32 set = static_cast<u32>(rng.NextBounded(16));
    vbf->AddToSet(&key, 8, set);
    added.emplace_back(key, set);
  }
  for (const auto& [key, set] : added) {
    EXPECT_TRUE(vbf->LookupSets(&key, 8) & (1u << set));
  }
}

TEST_P(VbfAllVariants, UnknownKeysMostlyEmpty) {
  VbfConfig config;
  config.positions = 1u << 16;
  auto vbf = Make(GetParam(), config);
  pktgen::Rng rng(14);
  for (int i = 0; i < 2000; ++i) {
    const u64 key = rng.NextBounded(100000);
    vbf->AddToSet(&key, 8, static_cast<u32>(rng.NextBounded(16)));
  }
  u32 hits = 0;
  for (int i = 0; i < 5000; ++i) {
    const u64 key = 0x100000000ull + rng.NextU64();
    if (vbf->LookupSets(&key, 8) != 0) {
      ++hits;
    }
  }
  EXPECT_LT(hits, 50u);
}

TEST_P(VbfAllVariants, PacketPathPassesMembers) {
  VbfConfig config;
  auto vbf = Make(GetParam(), config);
  const auto flows = pktgen::MakeFlowPopulation(4, 3);
  vbf->AddToSet(&flows[0], sizeof(flows[0]), 1);
  auto member = pktgen::Packet::FromTuple(flows[0]);
  ebpf::XdpContext ctx{member.frame, member.frame + ebpf::kFrameSize, 0};
  EXPECT_EQ(vbf->Process(ctx), ebpf::XdpAction::kPass);
  auto stranger = pktgen::Packet::FromTuple(flows[1]);
  ebpf::XdpContext ctx2{stranger.frame, stranger.frame + ebpf::kFrameSize, 0};
  EXPECT_EQ(vbf->Process(ctx2), ebpf::XdpAction::kDrop);
}

INSTANTIATE_TEST_SUITE_P(Variants, VbfAllVariants,
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

// All three variants hash with the same lane family, so they are not merely
// equivalent in distribution — they are bit-identical.
TEST(VbfEquivalence, AllVariantsBitIdentical) {
  VbfConfig config;
  VbfEbpf a(config);
  VbfKernel b(config);
  VbfEnetstl c(config);
  pktgen::Rng rng(21);
  for (int i = 0; i < 2000; ++i) {
    const u64 key = rng.NextBounded(5000);
    const u32 set = static_cast<u32>(rng.NextBounded(16));
    a.AddToSet(&key, 8, set);
    b.AddToSet(&key, 8, set);
    c.AddToSet(&key, 8, set);
  }
  for (u64 key = 0; key < 5000; ++key) {
    const u32 ra = a.LookupSets(&key, 8);
    ASSERT_EQ(ra, b.LookupSets(&key, 8)) << key;
    ASSERT_EQ(ra, c.LookupSets(&key, 8)) << key;
  }
}

// Row-count sweep: more hash rows => fewer false positives (monotone trend,
// checked loosely).
TEST(VbfRows, MoreRowsFewerFalsePositives) {
  u32 fp_by_rows[2] = {0, 0};
  int idx = 0;
  for (u32 rows : {1u, 6u}) {
    VbfConfig config;
    config.rows = rows;
    config.positions = 1u << 14;
    VbfKernel vbf(config);
    pktgen::Rng rng(100);
    for (int i = 0; i < 4000; ++i) {
      const u64 key = rng.NextBounded(100000);
      vbf.AddToSet(&key, 8, 0);
    }
    u32 fp = 0;
    for (int i = 0; i < 20000; ++i) {
      const u64 key = 0x8000000000ull + rng.NextU64();
      if (vbf.LookupSets(&key, 8) != 0) {
        ++fp;
      }
    }
    fp_by_rows[idx++] = fp;
  }
  EXPECT_LT(fp_by_rows[1], fp_by_rows[0]);
}

// The multi-hash scratch holds eight lanes and positions are masked with
// `positions - 1`, so a row count outside [1, 8] or a position count that
// is not a power of two is refused at construction, in every variant.
TEST(VbfRows, OutOfRangeGeometryIsRejectedInEveryVariant) {
  for (const Kind kind : {Kind::kEbpf, Kind::kKernel, Kind::kEnetstl}) {
    for (const u32 rows : {0u, 9u}) {
      VbfConfig config;
      config.rows = rows;
      EXPECT_THROW(Make(kind, config), std::invalid_argument)
          << "rows " << rows << " kind " << static_cast<int>(kind);
    }
    VbfConfig odd;
    odd.positions = 3000;
    EXPECT_THROW(Make(kind, odd), std::invalid_argument)
        << "kind " << static_cast<int>(kind);
    for (const u32 rows : {1u, 8u}) {
      VbfConfig config;
      config.rows = rows;
      EXPECT_NO_THROW(Make(kind, config)) << "rows " << rows;
    }
  }
}

}  // namespace
}  // namespace nf
