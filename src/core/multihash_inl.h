// Internal: multi-lane parallel hash kernel shared by hash.cc (low-level
// form) and post_hash.cc (fused forms). Not part of the public API.
//
// The lane family is designed for SIMD throughput: per 4-byte chunk the key
// material is premixed ONCE in scalar (m = w * P3) and absorbed into one of
// FOUR independent ARX accumulators (add + rotate), so the vector path has
// no long multiply chain; a two-multiply avalanche finalizes each lane.
// Lanes differ only in their seed (LaneSeed(base, r)), exactly like seeded
// xxHash instances. The scalar recurrence below *defines* the family; the
// SSE/AVX2 paths must (and are tested to) match it bit-for-bit.
#ifndef ENETSTL_CORE_MULTIHASH_INL_H_
#define ENETSTL_CORE_MULTIHASH_INL_H_

#include <cstring>

#include "core/hash.h"

#if defined(ENETSTL_HAVE_AVX2)
#include <immintrin.h>
#endif

namespace enetstl {
namespace internal {

inline constexpr u32 kPrime1 = 0x9e3779b1u;
inline constexpr u32 kPrime2 = 0x85ebca77u;
inline constexpr u32 kPrime3 = 0xc2b2ae3du;
inline constexpr u32 kPrime4 = 0x27d4eb2fu;
inline constexpr u32 kPrime5 = 0x165667b1u;

inline u32 Rotl32(u32 x, int r) { return (x << r) | (x >> (32 - r)); }

// Scalar lane recurrence — the definition of the lane function.
inline u32 LaneHash(const void* key, std::size_t len, u32 seed) {
  u32 a = seed + kPrime1 + static_cast<u32>(len);
  u32 b = seed + kPrime2;
  u32 c = seed + kPrime3;
  u32 d = seed + kPrime4;
  const u8* p = static_cast<const u8*>(key);
  std::size_t n = len;
  u32 i = 0;
  while (n >= 4) {
    u32 w;
    std::memcpy(&w, p, 4);
    const u32 m = w * kPrime3;
    switch (i & 3u) {
      case 0:
        a = Rotl32(a + m, 13);
        break;
      case 1:
        b = Rotl32(b + m, 11);
        break;
      case 2:
        c = Rotl32(c + m, 15);
        break;
      default:
        d = Rotl32(d + m, 7);
        break;
    }
    ++i;
    p += 4;
    n -= 4;
  }
  while (n > 0) {
    a = Rotl32(a + *p * kPrime5, 11);
    ++p;
    --n;
  }
  u32 h = Rotl32(a, 1) + Rotl32(b, 7) + Rotl32(c, 12) + Rotl32(d, 18);
  h ^= h >> 15;
  h *= kPrime2;
  h ^= h >> 13;
  h *= kPrime3;
  h ^= h >> 16;
  return h;
}

// The same lane function the way a JITed eBPF program computes it: the eBPF
// ISA has no rotate instruction, so every rotl is shift+shift+or, and the
// compiler barrier keeps the native compiler from fusing the pattern back
// into a single `rol` the way -O3 otherwise would. Values are identical to
// LaneHash (tested); only the instruction count differs — this models the
// JIT-versus-native codegen gap the paper's eBPF baselines pay.
inline u32 BpfRotl32(u32 x, int r) {
  u32 hi = x << r;
  asm("" : "+r"(hi));  // eBPF emits the three ALU ops separately
  const u32 lo = x >> (32 - r);
  return hi | lo;
}

inline u32 BpfLaneHashImpl(const void* key, std::size_t len, u32 seed) {
  u32 a = seed + kPrime1 + static_cast<u32>(len);
  u32 b = seed + kPrime2;
  u32 c = seed + kPrime3;
  u32 d = seed + kPrime4;
  const u8* p = static_cast<const u8*>(key);
  std::size_t n = len;
  u32 i = 0;
  while (n >= 4) {
    u32 w;
    std::memcpy(&w, p, 4);
    const u32 m = w * kPrime3;
    switch (i & 3u) {
      case 0:
        a = BpfRotl32(a + m, 13);
        break;
      case 1:
        b = BpfRotl32(b + m, 11);
        break;
      case 2:
        c = BpfRotl32(c + m, 15);
        break;
      default:
        d = BpfRotl32(d + m, 7);
        break;
    }
    ++i;
    p += 4;
    n -= 4;
  }
  while (n > 0) {
    a = BpfRotl32(a + *p * kPrime5, 11);
    ++p;
    --n;
  }
  u32 h = BpfRotl32(a, 1) + BpfRotl32(b, 7) + BpfRotl32(c, 12) +
          BpfRotl32(d, 18);
  h ^= h >> 15;
  h *= kPrime2;
  h ^= h >> 13;
  h *= kPrime3;
  h ^= h >> 16;
  return h;
}

#if defined(ENETSTL_HAVE_AVX2)

inline __m256i Rotl32x8(__m256i v, int r) {
  return _mm256_or_si256(_mm256_slli_epi32(v, r), _mm256_srli_epi32(v, 32 - r));
}

inline __m128i Rotl32x4(__m128i v, int r) {
  return _mm_or_si128(_mm_slli_epi32(v, r), _mm_srli_epi32(v, 32 - r));
}

// Returns the 8 lane hashes in a single AVX2 register; intermediate state
// never touches memory. The four accumulators are independent, so the
// additions and rotates pipeline; the only multiply chain is the two-step
// avalanche at the end.
inline __m256i MultiHash8Vec(const void* key, std::size_t len, u32 base_seed) {
  const __m256i lane_ids = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i seeds = _mm256_add_epi32(
      _mm256_set1_epi32(static_cast<int>(base_seed)),
      _mm256_mullo_epi32(lane_ids,
                         _mm256_set1_epi32(static_cast<int>(kHashLaneStep))));
  __m256i a = _mm256_add_epi32(
      seeds,
      _mm256_set1_epi32(static_cast<int>(kPrime1 + static_cast<u32>(len))));
  __m256i b = _mm256_add_epi32(seeds,
                               _mm256_set1_epi32(static_cast<int>(kPrime2)));
  __m256i c = _mm256_add_epi32(seeds,
                               _mm256_set1_epi32(static_cast<int>(kPrime3)));
  __m256i d = _mm256_add_epi32(seeds,
                               _mm256_set1_epi32(static_cast<int>(kPrime4)));

  const u8* p = static_cast<const u8*>(key);
  std::size_t n = len;
  u32 i = 0;
  while (n >= 4) {
    u32 w;
    std::memcpy(&w, p, 4);
    const __m256i m = _mm256_set1_epi32(static_cast<int>(w * kPrime3));
    switch (i & 3u) {
      case 0:
        a = Rotl32x8(_mm256_add_epi32(a, m), 13);
        break;
      case 1:
        b = Rotl32x8(_mm256_add_epi32(b, m), 11);
        break;
      case 2:
        c = Rotl32x8(_mm256_add_epi32(c, m), 15);
        break;
      default:
        d = Rotl32x8(_mm256_add_epi32(d, m), 7);
        break;
    }
    ++i;
    p += 4;
    n -= 4;
  }
  while (n > 0) {
    const __m256i m = _mm256_set1_epi32(static_cast<int>(*p * kPrime5));
    a = Rotl32x8(_mm256_add_epi32(a, m), 11);
    ++p;
    --n;
  }

  __m256i h = _mm256_add_epi32(
      _mm256_add_epi32(Rotl32x8(a, 1), Rotl32x8(b, 7)),
      _mm256_add_epi32(Rotl32x8(c, 12), Rotl32x8(d, 18)));
  const __m256i prime2 = _mm256_set1_epi32(static_cast<int>(kPrime2));
  const __m256i prime3 = _mm256_set1_epi32(static_cast<int>(kPrime3));
  h = _mm256_xor_si256(h, _mm256_srli_epi32(h, 15));
  h = _mm256_mullo_epi32(h, prime2);
  h = _mm256_xor_si256(h, _mm256_srli_epi32(h, 13));
  h = _mm256_mullo_epi32(h, prime3);
  h = _mm256_xor_si256(h, _mm256_srli_epi32(h, 16));
  return h;
}

// Four-lane (128-bit) variant: identical lane function, used when the caller
// needs at most 4 hash functions.
inline __m128i MultiHash4Vec(const void* key, std::size_t len, u32 base_seed) {
  const __m128i lane_ids = _mm_setr_epi32(0, 1, 2, 3);
  const __m128i seeds = _mm_add_epi32(
      _mm_set1_epi32(static_cast<int>(base_seed)),
      _mm_mullo_epi32(lane_ids,
                      _mm_set1_epi32(static_cast<int>(kHashLaneStep))));
  __m128i a = _mm_add_epi32(
      seeds, _mm_set1_epi32(static_cast<int>(kPrime1 + static_cast<u32>(len))));
  __m128i b = _mm_add_epi32(seeds, _mm_set1_epi32(static_cast<int>(kPrime2)));
  __m128i c = _mm_add_epi32(seeds, _mm_set1_epi32(static_cast<int>(kPrime3)));
  __m128i d = _mm_add_epi32(seeds, _mm_set1_epi32(static_cast<int>(kPrime4)));

  const u8* p = static_cast<const u8*>(key);
  std::size_t n = len;
  u32 i = 0;
  while (n >= 4) {
    u32 w;
    std::memcpy(&w, p, 4);
    const __m128i m = _mm_set1_epi32(static_cast<int>(w * kPrime3));
    switch (i & 3u) {
      case 0:
        a = Rotl32x4(_mm_add_epi32(a, m), 13);
        break;
      case 1:
        b = Rotl32x4(_mm_add_epi32(b, m), 11);
        break;
      case 2:
        c = Rotl32x4(_mm_add_epi32(c, m), 15);
        break;
      default:
        d = Rotl32x4(_mm_add_epi32(d, m), 7);
        break;
    }
    ++i;
    p += 4;
    n -= 4;
  }
  while (n > 0) {
    const __m128i m = _mm_set1_epi32(static_cast<int>(*p * kPrime5));
    a = Rotl32x4(_mm_add_epi32(a, m), 11);
    ++p;
    --n;
  }

  __m128i h = _mm_add_epi32(_mm_add_epi32(Rotl32x4(a, 1), Rotl32x4(b, 7)),
                            _mm_add_epi32(Rotl32x4(c, 12), Rotl32x4(d, 18)));
  const __m128i prime2 = _mm_set1_epi32(static_cast<int>(kPrime2));
  const __m128i prime3 = _mm_set1_epi32(static_cast<int>(kPrime3));
  h = _mm_xor_si128(h, _mm_srli_epi32(h, 15));
  h = _mm_mullo_epi32(h, prime2);
  h = _mm_xor_si128(h, _mm_srli_epi32(h, 13));
  h = _mm_mullo_epi32(h, prime3);
  h = _mm_xor_si128(h, _mm_srli_epi32(h, 16));
  return h;
}

#endif  // ENETSTL_HAVE_AVX2

// Computes all 8 lane hashes into out[] using whichever path is compiled in.
inline void MultiHash8Impl(const void* key, std::size_t len, u32 base_seed,
                           u32 out[8]) {
#if defined(ENETSTL_HAVE_AVX2)
  const __m256i v = MultiHash8Vec(key, len, base_seed);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), v);
#else
  for (u32 i = 0; i < 8; ++i) {
    out[i] = LaneHash(key, len, LaneSeed(base_seed, i));
  }
#endif
}

// Lane-count bound of every multi-hash consumer: the kernels produce 8 lanes,
// so a row count outside [1, 8] is rejected before any lane is read.
inline constexpr u32 kMaxLanes = 8;
inline bool LaneCountInRange(u32 rows) { return rows - 1 < kMaxLanes; }

// Computes the first `rows` (<= 8) lane hashes, choosing the narrowest
// vector that covers them; lanes beyond `rows` are untouched.
inline void MultiHashImpl(const void* key, std::size_t len, u32 base_seed,
                          u32 rows, u32 out[8]) {
#if defined(ENETSTL_HAVE_AVX2)
  if (rows <= 4) {
    alignas(16) u32 lanes[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(lanes),
                    MultiHash4Vec(key, len, base_seed));
    for (u32 i = 0; i < rows; ++i) {
      out[i] = lanes[i];
    }
    return;
  }
  MultiHash8Impl(key, len, base_seed, out);
#else
  for (u32 i = 0; i < rows; ++i) {
    out[i] = LaneHash(key, len, LaneSeed(base_seed, i));
  }
#endif
}

}  // namespace internal
}  // namespace enetstl

#endif  // ENETSTL_CORE_MULTIHASH_INL_H_
