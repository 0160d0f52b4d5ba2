// Tests for the parallel compare/reduce algorithms: the SIMD kfuncs must be
// semantically identical to the scalar reference implementations, across all
// counts (vector-width multiples, tails, tiny arrays) and edge cases.
#include "core/compare.h"

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <vector>

#include "pktgen/flowgen.h"

namespace enetstl {
namespace {

TEST(FindU32, EmptyArray) {
  EXPECT_EQ(FindU32(nullptr, 0, 42), -1);
}

TEST(FindU32, SingleElement) {
  const u32 one[1] = {7};
  EXPECT_EQ(FindU32(one, 1, 7), 0);
  EXPECT_EQ(FindU32(one, 1, 8), -1);
}

TEST(FindU32, FindsFirstOfDuplicates) {
  const u32 arr[12] = {1, 2, 3, 9, 9, 6, 7, 8, 9, 10, 11, 9};
  EXPECT_EQ(FindU32(arr, 12, 9), 3);
}

TEST(FindU32, MatchInTailAfterFullVectors) {
  std::vector<u32> arr(19, 0);
  arr[17] = 5;
  EXPECT_EQ(FindU32(arr.data(), 19, 5), 17);
}

TEST(FindU32, NoMatchReturnsMinusOne) {
  std::vector<u32> arr(100);
  for (u32 i = 0; i < 100; ++i) {
    arr[i] = i;
  }
  EXPECT_EQ(FindU32(arr.data(), 100, 1000), -1);
}

TEST(FindU16, BasicAndTail) {
  std::vector<u16> arr(37, 1);
  arr[36] = 9;
  EXPECT_EQ(FindU16(arr.data(), 37, 9), 36);
  EXPECT_EQ(FindU16(arr.data(), 36, 9), -1);
  EXPECT_EQ(FindU16(arr.data(), 0, 1), -1);
}

TEST(FindKey16, FindsPackedKey) {
  std::vector<u8> keys(16 * 5, 0);
  u8 key[16];
  for (int i = 0; i < 16; ++i) {
    key[i] = static_cast<u8>(i + 1);
  }
  std::memcpy(&keys[3 * 16], key, 16);
  EXPECT_EQ(FindKey16(keys.data(), 5, key), 3);
}

TEST(FindKey16, NearMissDiffersInOneByte) {
  std::vector<u8> keys(16 * 4, 0);
  u8 key[16];
  for (int i = 0; i < 16; ++i) {
    key[i] = static_cast<u8>(0x40 + i);
  }
  std::memcpy(&keys[2 * 16], key, 16);
  keys[2 * 16 + 15] ^= 1;  // corrupt last byte
  EXPECT_EQ(FindKey16(keys.data(), 4, key), -1);
}

TEST(FindKey16, OddCountTailEntry) {
  std::vector<u8> keys(16 * 3, 0xaa);
  u8 key[16];
  std::memset(key, 0xbb, 16);
  std::memcpy(&keys[2 * 16], key, 16);
  EXPECT_EQ(FindKey16(keys.data(), 3, key), 2);
}

TEST(MinIndexU32, EmptyReturnsMinusOne) {
  u32 v = 0;
  EXPECT_EQ(MinIndexU32(nullptr, 0, &v), -1);
}

TEST(MinIndexU32, FirstOccurrenceOfMinimum) {
  const u32 arr[16] = {9, 4, 7, 4, 12, 4, 9, 9, 30, 31, 32, 33, 34, 35, 36, 37};
  u32 min_val = 0;
  EXPECT_EQ(MinIndexU32(arr, 16, &min_val), 1);
  EXPECT_EQ(min_val, 4u);
}

TEST(MinIndexU32, MinimumInScalarTail) {
  std::vector<u32> arr(21, 100);
  arr[20] = 1;
  u32 min_val = 0;
  EXPECT_EQ(MinIndexU32(arr.data(), 21, &min_val), 20);
  EXPECT_EQ(min_val, 1u);
}

TEST(MaxIndexU32, FirstOccurrenceOfMaximum) {
  const u32 arr[10] = {1, 9, 3, 9, 2, 0, 1, 2, 3, 4};
  u32 max_val = 0;
  EXPECT_EQ(MaxIndexU32(arr, 10, &max_val), 1);
  EXPECT_EQ(max_val, 9u);
}

TEST(MinIndexU32, HandlesExtremeValues) {
  const u32 arr[9] = {0xffffffffu, 0xffffffffu, 0, 0xffffffffu, 5, 6, 7, 8, 9};
  u32 min_val = 1;
  EXPECT_EQ(MinIndexU32(arr, 9, &min_val), 2);
  EXPECT_EQ(min_val, 0u);
  u32 max_val = 0;
  EXPECT_EQ(MaxIndexU32(arr, 9, &max_val), 0);
  EXPECT_EQ(max_val, 0xffffffffu);
}

// Property tests: SIMD behaviour == scalar reference on random arrays, for
// every count in a sweep (covering full vectors + tails).
class CompareProperty : public ::testing::TestWithParam<u32> {};

TEST_P(CompareProperty, FindU32MatchesScalar) {
  const u32 count = GetParam();
  pktgen::Rng rng(1000 + count);
  for (int round = 0; round < 200; ++round) {
    std::vector<u32> arr(count);
    for (auto& v : arr) {
      v = static_cast<u32>(rng.NextBounded(count + 3));  // force duplicates
    }
    const u32 key = static_cast<u32>(rng.NextBounded(count + 3));
    ASSERT_EQ(FindU32(arr.data(), count, key),
              scalar::FindU32(arr.data(), count, key));
  }
}

TEST_P(CompareProperty, FindU16MatchesScalar) {
  const u32 count = GetParam();
  pktgen::Rng rng(2000 + count);
  for (int round = 0; round < 200; ++round) {
    std::vector<u16> arr(count);
    for (auto& v : arr) {
      v = static_cast<u16>(rng.NextBounded(count + 3));
    }
    const u16 key = static_cast<u16>(rng.NextBounded(count + 3));
    ASSERT_EQ(FindU16(arr.data(), count, key),
              scalar::FindU16(arr.data(), count, key));
  }
}

TEST_P(CompareProperty, MinMaxMatchScalar) {
  const u32 count = GetParam();
  if (count == 0) {
    return;
  }
  const auto expect_match = [](const std::vector<u32>& arr, u32 n) {
    u32 simd_min = 0, scalar_min = 0, simd_max = 0, scalar_max = 0;
    ASSERT_EQ(MinIndexU32(arr.data(), n, &simd_min),
              scalar::MinIndexU32(arr.data(), n, &scalar_min))
        << "n=" << n;
    ASSERT_EQ(simd_min, scalar_min) << "n=" << n;
    ASSERT_EQ(MaxIndexU32(arr.data(), n, &simd_max),
              scalar::MaxIndexU32(arr.data(), n, &scalar_max))
        << "n=" << n;
    ASSERT_EQ(simd_max, scalar_max) << "n=" << n;
  };
  pktgen::Rng rng(3000 + count);
  for (int round = 0; round < 200; ++round) {
    std::vector<u32> arr(count);
    for (auto& v : arr) {
      v = static_cast<u32>(rng.NextBounded(10));  // heavy duplicates
    }
    expect_match(arr, count);
  }
  // Full-range values, the unsigned extremes repeated among them, checked
  // at the full count and at every prefix length from 8 to 40: each prefix
  // ends in a different tail, which the vector reduce folds in with an
  // overlapping load.
  constexpr u32 kEdges[] = {0u, 1u, 0x7fffffffu, 0x80000000u, 0xfffffffeu,
                            0xffffffffu};
  for (int round = 0; round < 200; ++round) {
    std::vector<u32> arr(count);
    for (auto& v : arr) {
      v = rng.NextBounded(2) == 0
              ? kEdges[rng.NextBounded(std::size(kEdges))]
              : rng.NextU32();
    }
    expect_match(arr, count);
    for (u32 n = 8; n <= 40 && n < count; ++n) {
      expect_match(arr, n);
    }
  }
}

TEST_P(CompareProperty, FindKey16MatchesScalar) {
  const u32 count = GetParam();
  pktgen::Rng rng(4000 + count);
  for (int round = 0; round < 100; ++round) {
    std::vector<u8> keys(static_cast<std::size_t>(count) * 16);
    for (auto& b : keys) {
      b = static_cast<u8>(rng.NextBounded(3));  // likely collisions
    }
    u8 probe[16];
    for (auto& b : probe) {
      b = static_cast<u8>(rng.NextBounded(3));
    }
    ASSERT_EQ(FindKey16(keys.data(), count, probe),
              scalar::FindKey16(keys.data(), count, probe));
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, CompareProperty,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 7u, 8u, 9u, 15u,
                                           16u, 17u, 31u, 32u, 33u, 64u, 100u));

// Sign of a memcmp-style comparison, for exact-value assertions.
int Sign(int v) { return v < 0 ? -1 : (v > 0 ? 1 : 0); }

TEST(CompareKey32, EqualKeysReturnZero) {
  u8 a[32], b[32];
  for (int i = 0; i < 32; ++i) {
    a[i] = b[i] = static_cast<u8>(i * 7 + 1);
  }
  EXPECT_EQ(CompareKey32(a, b), 0);
  EXPECT_EQ(scalar::CompareKey32(a, b), 0);
}

TEST(CompareKey32, FirstDifferingByteDecidesAtEveryPosition) {
  // The result must depend on the FIRST differing byte, not any later one —
  // plant a contradictory difference after the deciding byte to prove it.
  for (int pos = 0; pos < 32; ++pos) {
    u8 a[32], b[32];
    for (int i = 0; i < 32; ++i) {
      a[i] = b[i] = static_cast<u8>(0x80 + i);
    }
    a[pos] = 0x10;
    b[pos] = 0x20;
    if (pos + 1 < 32) {
      a[pos + 1] = 0xff;  // later byte says a > b; must be ignored
      b[pos + 1] = 0x00;
    }
    EXPECT_EQ(CompareKey32(a, b), -1) << "pos " << pos;
    EXPECT_EQ(CompareKey32(b, a), 1) << "pos " << pos;
    EXPECT_EQ(scalar::CompareKey32(a, b), -1) << "pos " << pos;
  }
}

TEST(CompareKey32, MatchesScalarAndMemcmpOnRandomKeys) {
  pktgen::Rng rng(5000);
  for (int round = 0; round < 2000; ++round) {
    u8 a[32], b[32];
    for (int i = 0; i < 32; ++i) {
      // Narrow byte range -> frequent equal prefixes and full equality.
      a[i] = static_cast<u8>(rng.NextBounded(3));
      b[i] = static_cast<u8>(rng.NextBounded(3));
    }
    const int simd = CompareKey32(a, b);
    ASSERT_EQ(simd, scalar::CompareKey32(a, b));
    ASSERT_EQ(simd, Sign(std::memcmp(a, b, 32)));
    ASSERT_TRUE(simd == -1 || simd == 0 || simd == 1);
  }
}

TEST(CompareKey32, ExtremeByteValues) {
  u8 a[32] = {}, b[32] = {};
  a[31] = 0xff;  // high bit set: the compare must be unsigned, like memcmp
  EXPECT_EQ(CompareKey32(a, b), 1);
  EXPECT_EQ(CompareKey32(b, a), -1);
}

}  // namespace
}  // namespace enetstl
