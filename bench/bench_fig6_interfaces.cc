// Figure 6: rational abstraction ablation — high-level single-call
// interfaces versus low-level per-instruction interfaces, for the two
// behaviors the paper evaluates:
//   COMP — parallel compare/reduce over multiple buckets;
//   HASH — multiple hash computation with a post-op (counting), per key and
//          per 32-key burst (set-mask AND, the VBF lookup).
// Paper: the low-level designs lose 59.0%-73.1%.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

#include <bit>
#include <cstring>
#include <vector>

#include "core/compare.h"
#include "core/hash.h"
#include "core/post_hash.h"
#include "core/multihash_inl.h"
#include "core/simd.h"

namespace {

using ebpf::s32;
using ebpf::u32;
using ebpf::u64;
using ebpf::u8;

// --- COMP: find a key among 8 bucket entries ---------------------------------

// High level: one kfunc call, data loaded into SIMD registers once, index
// returned in a register.
void BM_Comp_high_level(benchmark::State& state) {
  alignas(32) u32 bucket[8] = {3, 9, 27, 81, 243, 729, 2187, 6561};
  u32 i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        enetstl::FindU32(bucket, 8, bucket[++i & 7]));
  }
}
BENCHMARK(BM_Comp_high_level);

// Low level: each SIMD instruction is its own out-of-line call with
// memory-resident operands (Listing 1's rejected design).
void BM_Comp_low_level(benchmark::State& state) {
  alignas(32) u32 bucket[8] = {3, 9, 27, 81, 243, 729, 2187, 6561};
  u32 i = 0;
  for (auto _ : state) {
    enetstl::Vec256 data, keys, eq;
    enetstl::lowlevel::LoadU256(&data, bucket);
    enetstl::lowlevel::BroadcastU32x8(&keys, bucket[++i & 7]);
    enetstl::lowlevel::CmpEqU32x8(&eq, data, keys);
    const u32 mask = enetstl::lowlevel::MovemaskU8x32(eq);
    const s32 idx = mask ? static_cast<s32>(std::countr_zero(mask) / 4) : -1;
    benchmark::DoNotOptimize(idx);
  }
}
BENCHMARK(BM_Comp_low_level);

// --- COMP: min-reduction over 32 counters ------------------------------------

void BM_MinReduce_high_level(benchmark::State& state) {
  alignas(32) u32 counters[32];
  for (u32 j = 0; j < 32; ++j) {
    counters[j] = (j * 2654435761u) >> 8;
  }
  u32 min_val = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(enetstl::MinIndexU32(counters, 32, &min_val));
  }
}
BENCHMARK(BM_MinReduce_high_level);

void BM_MinReduce_low_level(benchmark::State& state) {
  alignas(32) u32 counters[32];
  for (u32 j = 0; j < 32; ++j) {
    counters[j] = (j * 2654435761u) >> 8;
  }
  for (auto _ : state) {
    // Four loads + three min ops + a store, each an out-of-line call, then a
    // scalar pass over the spilled result.
    enetstl::Vec256 a, b, c, d;
    enetstl::lowlevel::LoadU256(&a, counters + 0);
    enetstl::lowlevel::LoadU256(&b, counters + 8);
    enetstl::lowlevel::LoadU256(&c, counters + 16);
    enetstl::lowlevel::LoadU256(&d, counters + 24);
    enetstl::lowlevel::MinU32x8(&a, a, b);
    enetstl::lowlevel::MinU32x8(&c, c, d);
    enetstl::lowlevel::MinU32x8(&a, a, c);
    alignas(32) u32 lanes[8];
    enetstl::lowlevel::StoreU256(lanes, a);
    u32 best = lanes[0];
    for (int l = 1; l < 8; ++l) {
      best = lanes[l] < best ? lanes[l] : best;
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_MinReduce_low_level);

// --- HASH: 8 hash functions + counter increments ------------------------------

// High level: fused hash_simd_cnt — hashes stay in registers, one call.
void BM_Hash_high_level(benchmark::State& state) {
  std::vector<u32> counters(8 * 4096, 0);
  u8 key[16] = {};
  u32 i = 0;
  for (auto _ : state) {
    ++i;
    std::memcpy(key, &i, 4);
    enetstl::HashCnt(counters.data(), 8, 4095, key, sizeof(key), 7, 1);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Hash_high_level);

// Mid level: multi-hash computed in one call, but results stored to memory
// and reloaded by the caller for the increments (Listing 2's counter-example
// fasthash_simd design: the store negates part of the SIMD gain).
void BM_Hash_mid_level(benchmark::State& state) {
  std::vector<u32> counters(8 * 4096, 0);
  u8 key[16] = {};
  u32 i = 0;
  for (auto _ : state) {
    ++i;
    std::memcpy(key, &i, 4);
    u32 hashes[8];
    enetstl::MultiHash8ToMem(key, sizeof(key), 7, hashes);
    for (u32 r = 0; r < 8; ++r) {
      u32& c = counters[r * 4096 + (hashes[r] & 4095)];
      const u32 next = c + 1;
      c = next >= c ? next : 0xffffffffu;
    }
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Hash_mid_level);

// Low level: the full per-instruction composition (the design Listing 1/2
// reject): every SIMD instruction of the multi-hash is its own out-of-line
// call with memory-resident operands. This is what "exposing SIMD
// instructions directly to eBPF" costs.
void BM_Hash_low_level(benchmark::State& state) {
  namespace ll = enetstl::lowlevel;
  namespace in = enetstl::internal;
  std::vector<u32> counters(8 * 4096, 0);
  u8 key[16] = {};
  alignas(32) u32 seed_words[8];
  for (u32 lane = 0; lane < 8; ++lane) {
    seed_words[lane] = enetstl::LaneSeed(7, lane);
  }
  enetstl::Vec256 seeds;
  ll::LoadU256(&seeds, seed_words);
  u32 i = 0;
  for (auto _ : state) {
    ++i;
    std::memcpy(key, &i, 4);
    // Accumulator setup: a = seeds + (P1 + len), b/c/d likewise.
    enetstl::Vec256 a, b, c, d, tmp;
    ll::BroadcastU32x8(&tmp, in::kPrime1 + 16);
    ll::AddU32x8(&a, seeds, tmp);
    ll::BroadcastU32x8(&tmp, in::kPrime2);
    ll::AddU32x8(&b, seeds, tmp);
    ll::BroadcastU32x8(&tmp, in::kPrime3);
    ll::AddU32x8(&c, seeds, tmp);
    ll::BroadcastU32x8(&tmp, in::kPrime4);
    ll::AddU32x8(&d, seeds, tmp);
    // Four chunk rounds (16-byte key), one accumulator each.
    u32 w;
    std::memcpy(&w, key + 0, 4);
    ll::BroadcastU32x8(&tmp, w * in::kPrime3);
    ll::AddU32x8(&a, a, tmp);
    ll::RotlU32x8(&a, a, 13);
    std::memcpy(&w, key + 4, 4);
    ll::BroadcastU32x8(&tmp, w * in::kPrime3);
    ll::AddU32x8(&b, b, tmp);
    ll::RotlU32x8(&b, b, 11);
    std::memcpy(&w, key + 8, 4);
    ll::BroadcastU32x8(&tmp, w * in::kPrime3);
    ll::AddU32x8(&c, c, tmp);
    ll::RotlU32x8(&c, c, 15);
    std::memcpy(&w, key + 12, 4);
    ll::BroadcastU32x8(&tmp, w * in::kPrime3);
    ll::AddU32x8(&d, d, tmp);
    ll::RotlU32x8(&d, d, 7);
    // Merge + avalanche.
    enetstl::Vec256 h;
    ll::RotlU32x8(&a, a, 1);
    ll::RotlU32x8(&b, b, 7);
    ll::RotlU32x8(&c, c, 12);
    ll::RotlU32x8(&d, d, 18);
    ll::AddU32x8(&h, a, b);
    ll::AddU32x8(&h, h, c);
    ll::AddU32x8(&h, h, d);
    ll::ShrU32x8(&tmp, h, 15);
    ll::XorU32x8(&h, h, tmp);
    ll::BroadcastU32x8(&tmp, in::kPrime2);
    ll::MulloU32x8(&h, h, tmp);
    ll::ShrU32x8(&tmp, h, 13);
    ll::XorU32x8(&h, h, tmp);
    ll::BroadcastU32x8(&tmp, in::kPrime3);
    ll::MulloU32x8(&h, h, tmp);
    ll::ShrU32x8(&tmp, h, 16);
    ll::XorU32x8(&h, h, tmp);
    // Store results and run the post-op caller side.
    alignas(32) u32 hashes[8];
    ll::StoreU256(hashes, h);
    for (u32 r = 0; r < 8; ++r) {
      u32& cnt = counters[r * 4096 + (hashes[r] & 4095)];
      const u32 next = cnt + 1;
      cnt = next >= cnt ? next : 0xffffffffu;
    }
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Hash_low_level);

// --- HASH at burst granularity: 32 keys x 8 rows, set-mask AND (VBF) --------
// The argument is log2 of the table's u32 positions: 16 is 256 KiB, the size
// of every VBF in the repository; 20 and 24 place the table beyond L2.

constexpr u32 kBurstKeys = 32;
constexpr u32 kBurstRows = 8;

struct BurstFixture {
  std::vector<u32> table;
  u32 mask;
  alignas(16) u8 keys[kBurstKeys][16] = {};

  explicit BurstFixture(const benchmark::State& state)
      : table(1u << state.range(0)), mask((1u << state.range(0)) - 1) {
    for (u32 p = 0; p <= mask; ++p) {
      table[p] = p * 2654435761u;
    }
    for (u32 k = 0; k < kBurstKeys; ++k) {
      std::memcpy(keys[k] + 4, &k, 4);
    }
  }
  // A new burst of distinct keys, so new table positions, per iteration.
  void NextBurst(u32 i) {
    for (u32 k = 0; k < kBurstKeys; ++k) {
      std::memcpy(keys[k], &i, 4);
    }
  }
};

// Two-stage: one multi_hash_prefetch_batch call stores all 32 x 8 positions
// (and prefetches them); a caller loop reloads them and ANDs the words.
void BM_HashBatch_two_stage(benchmark::State& state) {
  BurstFixture f(state);
  u32 i = 0;
  for (auto _ : state) {
    f.NextBurst(++i);
    u32 pos[kBurstKeys * kBurstRows];
    u32 out[kBurstKeys];
    enetstl::MultiHashPrefetchBatch(f.keys, 16, 16, kBurstKeys, 7, kBurstRows,
                                    f.mask, f.table.data(), sizeof(u32), 0,
                                    pos);
    for (u32 k = 0; k < kBurstKeys; ++k) {
      u32 result = 0xffffffffu;
      for (u32 r = 0; r < kBurstRows; ++r) {
        result &= f.table[pos[k * kBurstRows + r]];
      }
      out[k] = result;
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * kBurstKeys);
}
BENCHMARK(BM_HashBatch_two_stage)->Arg(16)->Arg(20)->Arg(24);

// Fused: one hash_mask_and_batch call; each key's lanes are ANDed in a
// register, no positions are stored across keys.
void BM_HashBatch_fused(benchmark::State& state) {
  BurstFixture f(state);
  u32 i = 0;
  for (auto _ : state) {
    f.NextBurst(++i);
    u32 out[kBurstKeys];
    enetstl::HashMaskAndBatch(f.table.data(), kBurstRows, f.mask, f.keys, 16,
                              16, kBurstKeys, 7, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * kBurstKeys);
}
BENCHMARK(BM_HashBatch_fused)->Arg(16)->Arg(20)->Arg(24);

}  // namespace

// Registry-aware main: --list / --nf= are handled before google-benchmark
// sees the arguments (HandleRegistryArgs strips what it consumes).
int main(int argc, char** argv) {
  if (const int code = bench::HandleRegistryArgs(&argc, argv); code >= 0) {
    return code;
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
