// Tests for NitroSketch: unbiasedness of the sampled estimates, exactness at
// p = 1, the geometric skipping schedule of the eNetSTL variant, and the
// helper-call footprint of the eBPF variant.
#include "nf/nitro.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "ebpf/helper.h"
#include "pktgen/flowgen.h"

namespace nf {
namespace {

enum class Kind { kEbpf, kKernel, kEnetstl };

std::unique_ptr<NitroBase> Make(Kind kind, const NitroConfig& config) {
  switch (kind) {
    case Kind::kEbpf:
      return std::make_unique<NitroEbpf>(config);
    case Kind::kKernel:
      return std::make_unique<NitroKernel>(config);
    case Kind::kEnetstl:
      return std::make_unique<NitroEnetstl>(config);
  }
  return nullptr;
}

class NitroAllVariants : public ::testing::TestWithParam<Kind> {
 protected:
  void SetUp() override {
    ebpf::SetCurrentCpu(0);
    ebpf::helpers::SeedPrandom(0x1234567890ull);
  }
};

TEST_P(NitroAllVariants, ProbabilityOneIsExactForLoneKey) {
  NitroConfig config;
  config.rows = 4;
  config.cols = 1024;
  config.update_prob = 1.0;
  auto sketch = Make(GetParam(), config);
  const char key[8] = "lonely";
  for (int i = 0; i < 100; ++i) {
    sketch->Update(key, 8);
  }
  EXPECT_EQ(sketch->Query(key, 8), 100u);
}

TEST_P(NitroAllVariants, SampledEstimateIsCloseForHeavyFlow) {
  NitroConfig config;
  config.rows = 8;
  config.cols = 4096;
  config.update_prob = 0.25;
  auto sketch = Make(GetParam(), config);
  const char heavy[8] = "elephnt";
  const u32 kTrue = 40000;
  for (u32 i = 0; i < kTrue; ++i) {
    sketch->Update(heavy, 8);
  }
  const u32 est = sketch->Query(heavy, 8);
  // Sampled estimator: generous 15% tolerance at this volume.
  EXPECT_GT(est, kTrue * 85 / 100);
  EXPECT_LT(est, kTrue * 115 / 100);
}

TEST_P(NitroAllVariants, ColdKeyEstimatesNearZero) {
  NitroConfig config;
  config.rows = 8;
  config.cols = 8192;
  config.update_prob = 0.5;
  auto sketch = Make(GetParam(), config);
  pktgen::Rng rng(12);
  for (int i = 0; i < 5000; ++i) {
    const u64 key = rng.NextBounded(100);
    sketch->Update(&key, 8);
  }
  const u64 cold = 0xdeadbeefcafeull;
  // Median-of-rows estimator keeps untouched keys near zero.
  EXPECT_LT(sketch->Query(&cold, 8), 50u);
}

INSTANTIATE_TEST_SUITE_P(Variants, NitroAllVariants,
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

// The eBPF variant must pay one prandom helper call per row per packet —
// that is precisely the cost the paper measures.
TEST(NitroEbpfSpecific, HelperCallsPerPacketEqualsRows) {
  NitroConfig config;
  config.rows = 8;
  NitroEbpf sketch(config);
  ebpf::GlobalHelperStats().Reset();
  const char key[4] = "pkt";
  sketch.Update(key, 4);
  EXPECT_EQ(ebpf::GlobalHelperStats().prandom_calls, 8u);
  sketch.Update(key, 4);
  EXPECT_EQ(ebpf::GlobalHelperStats().prandom_calls, 16u);
}

// The eNetSTL variant touches each row with probability p via geometric
// skipping: across many packets the per-row touch rate must converge to p.
TEST(NitroEnetstlSpecific, GeometricSkippingTouchRateMatchesP) {
  NitroConfig config;
  config.rows = 8;
  config.cols = 1024;
  config.update_prob = 0.125;
  NitroEnetstl sketch(config);
  ebpf::SetCurrentCpu(0);
  // A heavily updated key's estimate converges iff the per-row touch rate is
  // p (each touch contributes exactly 1/p).
  const char heavy[8] = "heavyyy";
  for (u32 i = 0; i < 80000; ++i) {
    sketch.Update(heavy, 8);
  }
  const u32 est = sketch.Query(heavy, 8);
  EXPECT_GT(est, 80000u * 80 / 100);
  EXPECT_LT(est, 80000u * 120 / 100);
}

TEST(NitroEnetstlSpecific, PoolRefillsAutomatically) {
  NitroConfig config;
  config.rows = 8;
  config.update_prob = 0.5;
  NitroEnetstl sketch(config);
  ebpf::SetCurrentCpu(0);
  // 4096-entry pool: tens of thousands of updates force several refills
  // without any exhaustion failure.
  for (int i = 0; i < 20000; ++i) {
    const u64 key = static_cast<u64>(i);
    sketch.Update(&key, 8);
  }
  SUCCEED();
}

TEST(NitroConfigTest, IncIsInverseProbability) {
  NitroConfig config;
  config.rows = 5;  // odd row count: the median is a single counter value
  config.update_prob = 0.125;
  NitroKernel sketch(config);
  const char key[4] = "one";
  // At p = 0.125 a single sampled touch adds 8.
  for (int i = 0; i < 200; ++i) {
    sketch.Update(key, 4);
  }
  const u32 est = sketch.Query(key, 4);
  EXPECT_EQ(est % 8, 0u);  // all contributions are multiples of 1/p
}


// The row scratch holds eight counters and columns are masked with
// `cols - 1`, so a row count outside [1, 8] or a column count that is not a
// power of two is refused at construction, in every variant.
TEST(NitroRows, OutOfRangeGeometryIsRejectedInEveryVariant) {
  for (const Kind kind : {Kind::kEbpf, Kind::kKernel, Kind::kEnetstl}) {
    for (const u32 rows : {0u, 9u}) {
      NitroConfig config;
      config.rows = rows;
      EXPECT_THROW(Make(kind, config), std::invalid_argument)
          << "rows " << rows << " kind " << static_cast<int>(kind);
    }
    for (const u32 cols : {0u, 3000u}) {
      NitroConfig config;
      config.cols = cols;
      EXPECT_THROW(Make(kind, config), std::invalid_argument)
          << "cols " << cols << " kind " << static_cast<int>(kind);
    }
    for (const u32 rows : {1u, 8u}) {
      NitroConfig config;
      config.rows = rows;
      EXPECT_NO_THROW(Make(kind, config)) << "rows " << rows;
    }
  }
}

// update_prob is the sampling probability p: NitroBase adds round(1 / p)
// per sampled row and the geometric pools draw skips with success
// probability p. Outside (0, 1] the increment conversion is undefined
// (p <= 0, NaN) or rounds to 0 or 1 (p > 1), so every variant refuses it.
TEST(NitroRows, UpdateProbOutOfRangeIsRejectedInEveryVariant) {
  for (const Kind kind : {Kind::kEbpf, Kind::kKernel, Kind::kEnetstl}) {
    for (const double p : {0.0, -0.5, 1.5, std::nan(""),
                           std::numeric_limits<double>::infinity()}) {
      NitroConfig config;
      config.update_prob = p;
      EXPECT_THROW(Make(kind, config), std::invalid_argument)
          << "update_prob " << p << " kind " << static_cast<int>(kind);
    }
    for (const double p : {1.0, 0.5, 1e-6}) {
      NitroConfig config;
      config.update_prob = p;
      EXPECT_NO_THROW(Make(kind, config)) << "update_prob " << p;
    }
  }
}

}  // namespace
}  // namespace nf
