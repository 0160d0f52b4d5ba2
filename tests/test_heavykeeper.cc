// Tests for HeavyKeeper: elephant flows surface in the top-k table under a
// Zipf workload, estimates track true counts for heavy flows, decay keeps
// mice out, and all three variants expose the same interface behaviour.
#include "nf/heavykeeper.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>

#include "ebpf/helper.h"
#include "pktgen/flowgen.h"
#include "pktgen/pipeline.h"

namespace nf {
namespace {

enum class Kind { kEbpf, kKernel, kEnetstl };

std::unique_ptr<HeavyKeeperBase> Make(Kind kind,
                                      const HeavyKeeperConfig& config) {
  switch (kind) {
    case Kind::kEbpf:
      return std::make_unique<HeavyKeeperEbpf>(config);
    case Kind::kKernel:
      return std::make_unique<HeavyKeeperKernel>(config);
    case Kind::kEnetstl:
      return std::make_unique<HeavyKeeperEnetstl>(config);
  }
  return nullptr;
}

class HeavyKeeperAllVariants : public ::testing::TestWithParam<Kind> {
 protected:
  void SetUp() override {
    ebpf::SetCurrentCpu(0);
    ebpf::helpers::SeedPrandom(0xabcdef01ull);
  }
};

TEST_P(HeavyKeeperAllVariants, LoneFlowCountedExactly) {
  HeavyKeeperConfig config;
  auto hk = Make(GetParam(), config);
  const u64 key = 0x1111;
  for (int i = 0; i < 500; ++i) {
    hk->Update(&key, 8, /*flow_id=*/0x1111);
  }
  // A lone flow never collides, so its count is exact.
  EXPECT_EQ(hk->Query(&key, 8), 500u);
}

TEST_P(HeavyKeeperAllVariants, HeavyFlowEntersTopK) {
  HeavyKeeperConfig config;
  config.topk = 8;
  auto hk = Make(GetParam(), config);
  pktgen::Rng rng(5);
  // Background noise: 2000 mice with 1-3 packets.
  for (int i = 0; i < 4000; ++i) {
    const u64 key = 100000 + rng.NextBounded(2000);
    hk->Update(&key, 8, static_cast<u32>(key));
  }
  // One elephant.
  const u64 elephant = 7;
  for (int i = 0; i < 3000; ++i) {
    hk->Update(&elephant, 8, 7);
  }
  const auto top = hk->TopK();
  const bool found = std::any_of(top.begin(), top.end(), [](const auto& e) {
    return e.flow == 7 && e.est > 2000;
  });
  EXPECT_TRUE(found);
}

TEST_P(HeavyKeeperAllVariants, TopKHoldsTheHeaviestFlows) {
  HeavyKeeperConfig config;
  config.topk = 16;
  config.cols = 8192;
  auto hk = Make(GetParam(), config);
  // 8 elephants with 2000+ packets each, 500 mice with <= 20.
  pktgen::Rng rng(6);
  std::map<u32, u32> truth;
  for (u32 e = 1; e <= 8; ++e) {
    const u64 key = e;
    const u32 count = 2000 + e * 100;
    truth[e] = count;
    for (u32 i = 0; i < count; ++i) {
      hk->Update(&key, 8, e);
    }
  }
  for (int i = 0; i < 5000; ++i) {
    const u64 key = 1000 + rng.NextBounded(500);
    hk->Update(&key, 8, static_cast<u32>(key));
  }
  const auto top = hk->TopK();
  u32 elephants_found = 0;
  for (const auto& entry : top) {
    if (entry.flow >= 1 && entry.flow <= 8) {
      ++elephants_found;
      // Estimate within 25% of truth for well-separated elephants.
      EXPECT_GT(entry.est, truth[entry.flow] * 3 / 4);
      EXPECT_LE(entry.est, truth[entry.flow] + 100);
    }
  }
  EXPECT_GE(elephants_found, 7u);
}

TEST_P(HeavyKeeperAllVariants, QueryUnknownFlowIsZeroOrTiny) {
  HeavyKeeperConfig config;
  auto hk = Make(GetParam(), config);
  pktgen::Rng rng(8);
  for (int i = 0; i < 2000; ++i) {
    const u64 key = rng.NextBounded(100);
    hk->Update(&key, 8, static_cast<u32>(key));
  }
  const u64 unknown = 0xfffffff;
  EXPECT_LT(hk->Query(&unknown, 8), 5u);
}

TEST_P(HeavyKeeperAllVariants, PacketPathFeedsTopK) {
  HeavyKeeperConfig config;
  config.topk = 8;
  auto hk = Make(GetParam(), config);
  const auto flows = pktgen::MakeFlowPopulation(100, 21);
  const auto trace = pktgen::MakeZipfTrace(flows, 20000, 1.3, 22);
  pktgen::ReplayOnce(hk->Handler(), trace);
  const auto top = hk->TopK();
  ASSERT_FALSE(top.empty());
  // The Zipf head flow must be present.
  const bool head_found =
      std::any_of(top.begin(), top.end(), [&](const auto& e) {
        return e.flow == flows[0].src_ip;
      });
  EXPECT_TRUE(head_found);
}

INSTANTIATE_TEST_SUITE_P(Variants, HeavyKeeperAllVariants,
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

TEST(HeavyKeeperDecay, MiceAreEvictedByElephants) {
  HeavyKeeperConfig config;
  config.rows = 2;
  config.cols = 2;  // tiny: force collisions
  config.topk = 8;
  HeavyKeeperKernel hk(config);
  const u64 mouse = 1, elephant = 2;
  for (int i = 0; i < 3; ++i) {
    hk.Update(&mouse, 8, 1);
  }
  for (int i = 0; i < 5000; ++i) {
    hk.Update(&elephant, 8, 2);
  }
  // The elephant's count must vastly exceed the mouse's residual estimate.
  EXPECT_GT(hk.Query(&elephant, 8), 1000u);
  EXPECT_LT(hk.Query(&mouse, 8), 100u);
}


// The row scratch holds eight positions and columns are masked with
// `cols - 1`, so a row count outside [1, 8] or a column count that is not a
// power of two is refused at construction, in every variant.
TEST(HeavyKeeperRows, OutOfRangeGeometryIsRejectedInEveryVariant) {
  for (const Kind kind : {Kind::kEbpf, Kind::kKernel, Kind::kEnetstl}) {
    for (const u32 rows : {0u, 9u}) {
      HeavyKeeperConfig config;
      config.rows = rows;
      EXPECT_THROW(Make(kind, config), std::invalid_argument)
          << "rows " << rows << " kind " << static_cast<int>(kind);
    }
    for (const u32 cols : {0u, 3000u}) {
      HeavyKeeperConfig config;
      config.cols = cols;
      EXPECT_THROW(Make(kind, config), std::invalid_argument)
          << "cols " << cols << " kind " << static_cast<int>(kind);
    }
    for (const u32 rows : {1u, 8u}) {
      HeavyKeeperConfig config;
      config.rows = rows;
      EXPECT_NO_THROW(Make(kind, config)) << "rows " << rows;
    }
  }
}

}  // namespace
}  // namespace nf
