// Tests for the fused post-hashing operations: each fused kfunc must have
// exactly the semantics of "compute the 8 lane hashes, then run the post-op"
// — validated against manual compositions built from MultiHash8ToMem.
#include "core/post_hash.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/hash.h"
#include "pktgen/flowgen.h"

namespace enetstl {
namespace {

constexpr u32 kSeed = 0x5eed;

struct Key {
  u8 bytes[16];
};

Key MakeKey(pktgen::Rng& rng) {
  Key k;
  for (auto& b : k.bytes) {
    b = static_cast<u8>(rng.NextU32());
  }
  return k;
}

TEST(HashCnt, MatchesManualComposition) {
  constexpr u32 kRows = 4;
  constexpr u32 kCols = 256;
  std::vector<u32> fused(kRows * kCols, 0);
  std::vector<u32> manual(kRows * kCols, 0);
  pktgen::Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const Key k = MakeKey(rng);
    HashCnt(fused.data(), kRows, kCols - 1, k.bytes, 16, kSeed, 1);
    u32 h[8];
    MultiHash8ToMem(k.bytes, 16, kSeed, h);
    for (u32 r = 0; r < kRows; ++r) {
      ++manual[r * kCols + (h[r] & (kCols - 1))];
    }
  }
  EXPECT_EQ(fused, manual);
}

TEST(HashCnt, SaturatesAtU32Max) {
  std::vector<u32> counters(1 * 1, 0);
  const char key[4] = "k";
  counters[0] = 0xfffffffeu;
  HashCnt(counters.data(), 1, 0, key, 1, kSeed, 5);
  EXPECT_EQ(counters[0], 0xffffffffu);
}

TEST(HashCntMin, IsMinOfAddressedCounters) {
  constexpr u32 kRows = 6;
  constexpr u32 kCols = 128;
  std::vector<u32> counters(kRows * kCols, 0);
  pktgen::Rng rng(2);
  const Key k = MakeKey(rng);
  u32 h[8];
  MultiHash8ToMem(k.bytes, 16, kSeed, h);
  // Put distinct values at the addressed cells.
  u32 expected_min = 0xffffffffu;
  for (u32 r = 0; r < kRows; ++r) {
    const u32 v = 100 + r * 10;
    counters[r * kCols + (h[r] & (kCols - 1))] = v;
    expected_min = v < expected_min ? v : expected_min;
  }
  EXPECT_EQ(HashCntMin(counters.data(), kRows, kCols - 1, k.bytes, 16, kSeed),
            expected_min);
}

TEST(HashCntUpdateThenQuery, NeverUnderestimates) {
  constexpr u32 kRows = 4;
  constexpr u32 kCols = 512;
  std::vector<u32> counters(kRows * kCols, 0);
  pktgen::Rng rng(3);
  std::vector<Key> keys;
  std::vector<u32> true_counts;
  for (int i = 0; i < 50; ++i) {
    keys.push_back(MakeKey(rng));
    true_counts.push_back(1 + static_cast<u32>(rng.NextBounded(20)));
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (u32 c = 0; c < true_counts[i]; ++c) {
      HashCnt(counters.data(), kRows, kCols - 1, keys[i].bytes, 16, kSeed, 1);
    }
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_GE(HashCntMin(counters.data(), kRows, kCols - 1, keys[i].bytes, 16,
                         kSeed),
              true_counts[i]);
  }
}

TEST(HashBits, NoFalseNegatives) {
  constexpr u32 kBits = 1u << 14;
  std::vector<u64> bitmap(kBits / 64, 0);
  pktgen::Rng rng(4);
  std::vector<Key> added;
  for (int i = 0; i < 500; ++i) {
    added.push_back(MakeKey(rng));
    HashSetBits(bitmap.data(), 4, kBits - 1, added.back().bytes, 16, kSeed);
  }
  for (const Key& k : added) {
    EXPECT_TRUE(HashTestBits(bitmap.data(), 4, kBits - 1, k.bytes, 16, kSeed));
  }
}

TEST(HashBits, FalsePositiveRateIsLow) {
  constexpr u32 kBits = 1u << 16;
  std::vector<u64> bitmap(kBits / 64, 0);
  pktgen::Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const Key k = MakeKey(rng);
    HashSetBits(bitmap.data(), 4, kBits - 1, k.bytes, 16, kSeed);
  }
  u32 false_positives = 0;
  const u32 kProbes = 10000;
  for (u32 i = 0; i < kProbes; ++i) {
    const Key k = MakeKey(rng);  // fresh keys, never added
    if (HashTestBits(bitmap.data(), 4, kBits - 1, k.bytes, 16, kSeed)) {
      ++false_positives;
    }
  }
  // With n=2000, m=65536, k=4: theoretical fpr ~ 0.02%; allow generous slack.
  EXPECT_LT(false_positives, kProbes / 100);
}

TEST(HashBits, EmptyBitmapRejectsEverything) {
  std::vector<u64> bitmap(64, 0);
  pktgen::Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    const Key k = MakeKey(rng);
    EXPECT_FALSE(HashTestBits(bitmap.data(), 4, 4095, k.bytes, 16, kSeed));
  }
}

TEST(HashCmp, FindsMatchingSignature) {
  constexpr u32 kTableSize = 256;
  std::vector<u32> table(kTableSize, 0);
  pktgen::Rng rng(7);
  const Key k = MakeKey(rng);
  u32 pos_arr[8];
  HashPositions(pos_arr, 4, kTableSize - 1, k.bytes, 16, kSeed);
  const u32 sig = 0xabcd1234u;
  table[pos_arr[2]] = sig;
  u32 found_pos = 0;
  s32 empty_pos = -1;
  const s32 row = HashCmp(table.data(), kTableSize - 1, k.bytes, 16, kSeed, 4,
                          sig, &found_pos, &empty_pos);
  // Row 2 holds the signature unless an earlier row aliases to the same slot.
  ASSERT_GE(row, 0);
  ASSERT_LE(row, 2);
  EXPECT_EQ(table[found_pos], sig);
}

TEST(HashCmp, ReportsFirstEmptyOnMiss) {
  constexpr u32 kTableSize = 128;
  std::vector<u32> table(kTableSize, 0xffffffffu);  // all occupied, wrong sig
  pktgen::Rng rng(8);
  const Key k = MakeKey(rng);
  u32 pos_arr[8];
  HashPositions(pos_arr, 4, kTableSize - 1, k.bytes, 16, kSeed);
  table[pos_arr[1]] = kEmptySig;
  u32 found_pos = 0;
  s32 empty_pos = -1;
  const s32 row = HashCmp(table.data(), kTableSize - 1, k.bytes, 16, kSeed, 4,
                          0x1234u, &found_pos, &empty_pos);
  EXPECT_EQ(row, -1);
  EXPECT_EQ(empty_pos, static_cast<s32>(pos_arr[1]));
}

TEST(HashCmp, MissWithNoEmptyReturnsMinusOneEmpty) {
  std::vector<u32> table(64, 0x77777777u);
  pktgen::Rng rng(9);
  const Key k = MakeKey(rng);
  u32 found_pos = 0;
  s32 empty_pos = 0;
  EXPECT_EQ(HashCmp(table.data(), 63, k.bytes, 16, kSeed, 4, 0x1u, &found_pos,
                    &empty_pos),
            -1);
  EXPECT_EQ(empty_pos, -1);
}

TEST(HashPositions, MatchesMultiHashLanes) {
  pktgen::Rng rng(10);
  for (int i = 0; i < 200; ++i) {
    const Key k = MakeKey(rng);
    u32 pos_arr[8];
    u32 h[8];
    HashPositions(pos_arr, 8, 1023, k.bytes, 16, kSeed);
    MultiHash8ToMem(k.bytes, 16, kSeed, h);
    for (u32 r = 0; r < 8; ++r) {
      ASSERT_EQ(pos_arr[r], h[r] & 1023u);
    }
  }
}

TEST(HashMask, OrThenAndRecoversSetVector) {
  constexpr u32 kPositions = 4096;
  std::vector<u32> table(kPositions, 0);
  pktgen::Rng rng(11);
  const Key k1 = MakeKey(rng);
  const Key k2 = MakeKey(rng);
  HashMaskOr(table.data(), 4, kPositions - 1, k1.bytes, 16, kSeed, 1u << 3);
  HashMaskOr(table.data(), 4, kPositions - 1, k1.bytes, 16, kSeed, 1u << 7);
  HashMaskOr(table.data(), 4, kPositions - 1, k2.bytes, 16, kSeed, 1u << 5);
  const u32 m1 = HashMaskAnd(table.data(), 4, kPositions - 1, k1.bytes, 16, kSeed);
  EXPECT_TRUE(m1 & (1u << 3));
  EXPECT_TRUE(m1 & (1u << 7));
  const u32 m2 = HashMaskAnd(table.data(), 4, kPositions - 1, k2.bytes, 16, kSeed);
  EXPECT_TRUE(m2 & (1u << 5));
}

TEST(HashMask, UnknownKeyUsuallyEmpty) {
  constexpr u32 kPositions = 1u << 16;
  std::vector<u32> table(kPositions, 0);
  pktgen::Rng rng(12);
  for (int i = 0; i < 200; ++i) {
    const Key k = MakeKey(rng);
    HashMaskOr(table.data(), 4, kPositions - 1, k.bytes, 16, kSeed,
               1u << rng.NextBounded(16));
  }
  u32 hits = 0;
  for (int i = 0; i < 2000; ++i) {
    const Key k = MakeKey(rng);
    if (HashMaskAnd(table.data(), 4, kPositions - 1, k.bytes, 16, kSeed) != 0) {
      ++hits;
    }
  }
  EXPECT_LT(hits, 20u);
}

// The burst form must equal the per-key kfunc bit for bit, including for
// keys whose length is odd and whose slots are wider than the key.
TEST(HashMaskAndBatch, MatchesPerKeyHashMaskAnd) {
  constexpr u32 kPositions = 1u << 12;
  constexpr u32 kKlen = 13;
  constexpr u32 kStride = 20;
  constexpr u32 kMaxKeys = 100;
  pktgen::Rng rng(13);
  std::vector<u32> table(kPositions, 0);
  std::vector<u8> keys(kMaxKeys * kStride);
  for (auto& b : keys) {
    b = static_cast<u8>(rng.NextU32());
  }
  // Members: the first half of the keys, each in one of 16 sets. The second
  // half stays absent, so results mix set vectors with (mostly) empty ones.
  for (u32 i = 0; i < kMaxKeys / 2; ++i) {
    HashMaskOr(table.data(), 8, kPositions - 1, &keys[i * kStride], kKlen,
               kSeed, 1u << (i % 16));
  }
  for (const u32 rows : {1u, 2u, 4u, 5u, 8u}) {
    for (const u32 n : {0u, 1u, 31u, 32u, 33u, 100u}) {
      std::vector<u32> out(n + 1, 0xdeadbeefu);
      HashMaskAndBatch(table.data(), rows, kPositions - 1, keys.data(),
                       kStride, kKlen, n, kSeed, out.data());
      for (u32 i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], HashMaskAnd(table.data(), rows, kPositions - 1,
                                      &keys[i * kStride], kKlen, kSeed))
            << "rows=" << rows << " n=" << n << " i=" << i;
      }
      EXPECT_EQ(out[n], 0xdeadbeefu) << "wrote past n=" << n;
    }
  }
}

// Parameterized over row counts 1..8: fused ops must respect the row bound.
class PostHashRows : public ::testing::TestWithParam<u32> {};

TEST_P(PostHashRows, OnlyRequestedRowsTouched) {
  const u32 rows = GetParam();
  constexpr u32 kCols = 64;
  std::vector<u32> counters(8 * kCols, 0);
  const char key[8] = "rowtest";
  HashCnt(counters.data(), rows, kCols - 1, key, 8, kSeed, 1);
  u32 touched = 0;
  for (u32 i = 0; i < counters.size(); ++i) {
    touched += counters[i];
  }
  EXPECT_EQ(touched, rows);
  // No counter beyond row `rows` may be non-zero.
  for (u32 i = rows * kCols; i < 8 * kCols; ++i) {
    EXPECT_EQ(counters[i], 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Rows, PostHashRows,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// The lane buffer holds 8 hashes, so a row count outside [1, 8] must be
// rejected before any lane is read: query forms return their empty result,
// update forms leave the table alone. Tables are sized for 9 rows and
// pre-filled so that reading or writing a ninth lane would show.
class PostHashRowsOutOfRange : public ::testing::TestWithParam<u32> {};

TEST_P(PostHashRowsOutOfRange, QueriesEmptyAndUpdatesNoop) {
  const u32 rows = GetParam();
  constexpr u32 kCols = 64;
  constexpr u32 kSentinel = 0xabababab;
  const char key[8] = "rowtest";

  std::vector<u32> counters(9 * kCols, 0);
  HashCnt(counters.data(), rows, kCols - 1, key, 8, kSeed, 1);
  EXPECT_EQ(counters, std::vector<u32>(9 * kCols, 0));
  std::vector<u32> fives(9 * kCols, 5);
  EXPECT_EQ(HashCntMin(fives.data(), rows, kCols - 1, key, 8, kSeed), 0u);

  std::vector<u64> bitmap(kCols, 0);
  HashSetBits(bitmap.data(), rows, kCols * 64 - 1, key, 8, kSeed);
  EXPECT_EQ(bitmap, std::vector<u64>(kCols, 0));
  const std::vector<u64> full_bitmap(kCols, ~0ull);
  EXPECT_FALSE(
      HashTestBits(full_bitmap.data(), rows, kCols * 64 - 1, key, 8, kSeed));

  const std::vector<u32> all_sig(kCols, 7);
  u32 pos_out = kSentinel;
  s32 empty_out = 0;
  EXPECT_EQ(HashCmp(all_sig.data(), kCols - 1, key, 8, kSeed, rows, 7,
                    &pos_out, &empty_out),
            -1);
  EXPECT_EQ(pos_out, kSentinel);
  EXPECT_EQ(empty_out, -1);

  std::vector<u32> table(kCols, 0);
  HashMaskOr(table.data(), rows, kCols - 1, key, 8, kSeed, 1u << 4);
  EXPECT_EQ(table, std::vector<u32>(kCols, 0));
  const std::vector<u32> all_sets(kCols, 0xffffffffu);
  EXPECT_EQ(HashMaskAnd(all_sets.data(), rows, kCols - 1, key, 8, kSeed), 0u);

  std::vector<u32> pos(9, kSentinel);
  HashPositions(pos.data(), rows, kCols - 1, key, 8, kSeed);
  EXPECT_EQ(pos, std::vector<u32>(9, kSentinel));

  const char keys[2][8] = {"rowtst0", "rowtst1"};
  std::vector<u32> batch_pos(2 * 9, kSentinel);
  MultiHashPrefetchBatch(keys, 8, 8, 2, kSeed, rows, kCols - 1,
                         all_sets.data(), sizeof(u32), 0, batch_pos.data());
  EXPECT_EQ(batch_pos, std::vector<u32>(2 * 9, kSentinel));
  std::vector<u32> batch_sets(2, kSentinel);
  HashMaskAndBatch(all_sets.data(), rows, kCols - 1, keys, 8, 8, 2, kSeed,
                   batch_sets.data());
  EXPECT_EQ(batch_sets, std::vector<u32>(2, 0));
}

INSTANTIATE_TEST_SUITE_P(Rows, PostHashRowsOutOfRange,
                         ::testing::Values(0u, 9u));

}  // namespace
}  // namespace enetstl
