// Tests for the count-min sketch NF, across all three variants: count-min
// invariants (never underestimates), cross-variant layout equivalence where
// the hash families coincide, reset semantics, and the packet path.
#include "nf/cms.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "ebpf/helper.h"
#include "pktgen/flowgen.h"
#include "pktgen/pipeline.h"

namespace nf {
namespace {

enum class Kind { kEbpf, kKernel, kEnetstl };

std::unique_ptr<CmsBase> Make(Kind kind, const CmsConfig& config) {
  switch (kind) {
    case Kind::kEbpf:
      return std::make_unique<CmsEbpf>(config);
    case Kind::kKernel:
      return std::make_unique<CmsKernel>(config);
    case Kind::kEnetstl:
      return std::make_unique<CmsEnetstl>(config);
  }
  return nullptr;
}

class CmsAllVariants : public ::testing::TestWithParam<Kind> {
 protected:
  void SetUp() override { ebpf::SetCurrentCpu(0); }
};

TEST_P(CmsAllVariants, SingleKeyCountsExactlyWhenAlone) {
  CmsConfig config;
  config.rows = 4;
  config.cols = 1024;
  auto cms = Make(GetParam(), config);
  const char key[8] = "flow-01";
  for (int i = 0; i < 17; ++i) {
    cms->Update(key, 8, 1);
  }
  EXPECT_EQ(cms->Query(key, 8), 17u);
}

TEST_P(CmsAllVariants, NeverUnderestimates) {
  CmsConfig config;
  config.rows = 4;
  config.cols = 512;
  auto cms = Make(GetParam(), config);
  pktgen::Rng rng(17);
  std::unordered_map<u64, u32> truth;
  for (int i = 0; i < 3000; ++i) {
    const u64 key = rng.NextBounded(300);
    cms->Update(&key, 8, 1);
    ++truth[key];
  }
  for (const auto& [key, count] : truth) {
    EXPECT_GE(cms->Query(&key, 8), count);
  }
}

TEST_P(CmsAllVariants, EstimateErrorIsBounded) {
  // Classic CM guarantee: error <= eps * total with prob 1 - delta.
  CmsConfig config;
  config.rows = 4;
  config.cols = 4096;
  auto cms = Make(GetParam(), config);
  pktgen::Rng rng(23);
  std::unordered_map<u64, u32> truth;
  const u32 kTotal = 20000;
  for (u32 i = 0; i < kTotal; ++i) {
    const u64 key = rng.NextBounded(2000);
    cms->Update(&key, 8, 1);
    ++truth[key];
  }
  // e/cols * total ~ 13; allow 4x slack for variance across seeds.
  u32 violations = 0;
  for (const auto& [key, count] : truth) {
    if (cms->Query(&key, 8) > count + 52) {
      ++violations;
    }
  }
  EXPECT_LT(violations, truth.size() / 50);
}

TEST_P(CmsAllVariants, IncrementBySupportsWeights) {
  CmsConfig config;
  config.rows = 3;
  config.cols = 256;
  auto cms = Make(GetParam(), config);
  const char key[4] = "wgt";
  cms->Update(key, 4, 10);
  cms->Update(key, 4, 5);
  EXPECT_EQ(cms->Query(key, 4), 15u);
}

TEST_P(CmsAllVariants, ResetClearsCounts) {
  CmsConfig config;
  auto cms = Make(GetParam(), config);
  const char key[4] = "rst";
  cms->Update(key, 4, 7);
  ASSERT_GE(cms->Query(key, 4), 7u);
  cms->Reset();
  EXPECT_EQ(cms->Query(key, 4), 0u);
}

TEST_P(CmsAllVariants, PacketPathUpdatesSketch) {
  CmsConfig config;
  auto cms = Make(GetParam(), config);
  const auto flows = pktgen::MakeFlowPopulation(1, 5);
  const auto trace = pktgen::MakeUniformTrace(flows, 10, 6);
  pktgen::ReplayOnce(cms->Handler(), trace);
  EXPECT_GE(cms->Query(&flows[0], sizeof(flows[0])), 10u);
}

TEST_P(CmsAllVariants, RowSweepStaysConsistent) {
  for (u32 rows : {1u, 2u, 3u, 5u, 8u}) {
    CmsConfig config;
    config.rows = rows;
    config.cols = 512;
    auto cms = Make(GetParam(), config);
    const char key[6] = "sweep";
    for (int i = 0; i < 9; ++i) {
      cms->Update(key, 6, 1);
    }
    EXPECT_EQ(cms->Query(key, 6), 9u) << "rows=" << rows;
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, CmsAllVariants,
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

// The multi-hash scratch holds eight lanes and columns are masked with
// `cols - 1`, so a row count outside [1, 8] or a column count that is not a
// power of two is refused at construction, in every variant.
TEST(CmsRows, OutOfRangeGeometryIsRejectedInEveryVariant) {
  for (const Kind kind : {Kind::kEbpf, Kind::kKernel, Kind::kEnetstl}) {
    for (const u32 rows : {0u, 9u}) {
      CmsConfig config;
      config.rows = rows;
      EXPECT_THROW(Make(kind, config), std::invalid_argument)
          << "rows " << rows << " kind " << static_cast<int>(kind);
    }
    CmsConfig odd;
    odd.cols = 3000;
    EXPECT_THROW(Make(kind, odd), std::invalid_argument)
        << "kind " << static_cast<int>(kind);
    for (const u32 rows : {1u, 8u}) {
      CmsConfig config;
      config.rows = rows;
      EXPECT_NO_THROW(Make(kind, config)) << "rows " << rows;
    }
  }
}

// With rows >= 3 all variants use the same lane-hash family, so the
// estimates must agree exactly query-for-query.
TEST(CmsEquivalence, AllVariantsAgreeForMultiRow) {
  CmsConfig config;
  config.rows = 4;
  config.cols = 1024;
  CmsEbpf a(config);
  CmsKernel b(config);
  CmsEnetstl c(config);
  ebpf::SetCurrentCpu(0);
  pktgen::Rng rng(31);
  for (int i = 0; i < 5000; ++i) {
    const u64 key = rng.NextBounded(500);
    a.Update(&key, 8, 1);
    b.Update(&key, 8, 1);
    c.Update(&key, 8, 1);
  }
  for (u64 key = 0; key < 500; ++key) {
    const u32 qa = a.Query(&key, 8);
    ASSERT_EQ(qa, b.Query(&key, 8)) << key;
    ASSERT_EQ(qa, c.Query(&key, 8)) << key;
  }
}

TEST(CmsEbpfSpecific, UsesPercpuState) {
  CmsConfig config;
  CmsEbpf cms(config);
  const char key[4] = "cpu";
  ebpf::SetCurrentCpu(0);
  cms.Update(key, 4, 3);
  ebpf::SetCurrentCpu(1);
  EXPECT_EQ(cms.Query(key, 4), 0u);  // other CPU's sketch is empty
  ebpf::SetCurrentCpu(0);
  EXPECT_EQ(cms.Query(key, 4), 3u);
}

TEST(CmsEbpfSpecific, MapLookupsHappenPerOperation) {
  ebpf::GlobalHelperStats().Reset();
  CmsConfig config;
  CmsEbpf cms(config);
  const char key[4] = "cnt";
  cms.Update(key, 4, 1);
  cms.Query(key, 4);
  EXPECT_EQ(ebpf::GlobalHelperStats().map_lookup_calls, 2u);
}

}  // namespace
}  // namespace nf
