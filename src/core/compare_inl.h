// Internal: inline implementations of the parallel compare/reduce kernels.
// compare.cc wraps them as out-of-line kfuncs (the eNetSTL API); the
// kernel-native NF baselines include this header directly so they get the
// same SIMD code with no call boundary. Not part of the public API.
#ifndef ENETSTL_CORE_COMPARE_INL_H_
#define ENETSTL_CORE_COMPARE_INL_H_

#include <cstring>

#include "core/bits.h"
#include "core/compare.h"

#if defined(ENETSTL_HAVE_AVX2)
#include <immintrin.h>
#endif

namespace enetstl {
namespace internal {

inline s32 FindU32Impl(const u32* arr, u32 count, u32 key) {
#if defined(ENETSTL_HAVE_AVX2)
  const __m256i vkey = _mm256_set1_epi32(static_cast<int>(key));
  u32 i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(arr + i));
    const u32 mask = static_cast<u32>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi32(v, vkey)));
    if (mask != 0) {
      return static_cast<s32>(i + (Ffs64(mask) >> 2));
    }
  }
  for (; i < count; ++i) {
    if (arr[i] == key) {
      return static_cast<s32>(i);
    }
  }
  return -1;
#else
  return scalar::FindU32(arr, count, key);
#endif
}

inline s32 FindU16Impl(const u16* arr, u32 count, u16 key) {
#if defined(ENETSTL_HAVE_AVX2)
  const __m256i vkey = _mm256_set1_epi16(static_cast<short>(key));
  u32 i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(arr + i));
    const u32 mask = static_cast<u32>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi16(v, vkey)));
    if (mask != 0) {
      return static_cast<s32>(i + (Ffs64(mask) >> 1));
    }
  }
  for (; i < count; ++i) {
    if (arr[i] == key) {
      return static_cast<s32>(i);
    }
  }
  return -1;
#else
  return scalar::FindU16(arr, count, key);
#endif
}

inline s32 FindKey16Impl(const u8* keys, u32 count, const u8* key) {
#if defined(ENETSTL_HAVE_AVX2)
  const __m128i k128 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(key));
  const __m256i vkey = _mm256_broadcastsi128_si256(k128);
  u32 i = 0;
  for (; i + 2 <= count; i += 2) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i * 16));
    const u32 mask = static_cast<u32>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, vkey)));
    if ((mask & 0xffffu) == 0xffffu) {
      return static_cast<s32>(i);
    }
    if ((mask >> 16) == 0xffffu) {
      return static_cast<s32>(i + 1);
    }
  }
  if (i < count && std::memcmp(keys + i * 16, key, 16) == 0) {
    return static_cast<s32>(i);
  }
  return -1;
#else
  return scalar::FindKey16(keys, count, key);
#endif
}

inline s32 CompareKey32Impl(const u8* a, const u8* b) {
#if defined(ENETSTL_HAVE_AVX2)
  const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
  const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
  const u32 neq =
      ~static_cast<u32>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(va, vb)));
  if (neq == 0) {
    return 0;
  }
  const u32 i = Ffs64(neq);  // lowest set bit = first differing byte
  return a[i] < b[i] ? -1 : 1;
#else
  return scalar::CompareKey32(a, b);
#endif
}

#if defined(ENETSTL_HAVE_AVX2)
template <bool kMin>
inline __m256i FoldU32(__m256i a, __m256i b) {
  if constexpr (kMin) {
    return _mm256_min_epu32(a, b);
  } else {
    return _mm256_max_epu32(a, b);
  }
}

// Extreme value and its first index over count >= 8 u32s, all in registers:
// fold the array into one vector (the tail through an overlapping load of
// the last 8 lanes, which min/max tolerate), broadcast the extreme to every
// lane with a permute/shuffle tree, then find its first occurrence with
// cmpeq + movemask.
template <bool kMin>
inline s32 ExtremeIndexU32Avx2(const u32* arr, u32 count, u32* extreme) {
  const auto load = [arr](u32 at) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(arr + at));
  };
  __m256i v = load(0);
  for (u32 i = 8; i + 8 <= count; i += 8) {
    v = FoldU32<kMin>(v, load(i));
  }
  if (count % 8 != 0) {
    v = FoldU32<kMin>(v, load(count - 8));
  }
  v = FoldU32<kMin>(v, _mm256_permute2x128_si256(v, v, 0x01));
  v = FoldU32<kMin>(v, _mm256_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
  v = FoldU32<kMin>(v, _mm256_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
  *extreme = static_cast<u32>(_mm256_cvtsi256_si32(v));
  const auto match = [&](u32 at) {
    return static_cast<u32>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(load(at), v))));
  };
  for (u32 i = 0; i + 8 <= count; i += 8) {
    const u32 mask = match(i);
    if (mask != 0) {
      return static_cast<s32>(i + Ffs64(mask));
    }
  }
  // The extreme lies in the tail. The overlapping lanes were scanned above
  // and held no match, so the first set bit is the first occurrence.
  return static_cast<s32>(count - 8 + Ffs64(match(count - 8)));
}
#endif

inline s32 MinIndexU32Impl(const u32* arr, u32 count, u32* min_val) {
  if (count == 0) {
    return -1;
  }
#if defined(ENETSTL_HAVE_AVX2)
  if (count >= 8) {
    return ExtremeIndexU32Avx2<true>(arr, count, min_val);
  }
#endif
  return scalar::MinIndexU32(arr, count, min_val);
}

inline s32 MaxIndexU32Impl(const u32* arr, u32 count, u32* max_val) {
  if (count == 0) {
    return -1;
  }
#if defined(ENETSTL_HAVE_AVX2)
  if (count >= 8) {
    return ExtremeIndexU32Avx2<false>(arr, count, max_val);
  }
#endif
  return scalar::MaxIndexU32(arr, count, max_val);
}

}  // namespace internal
}  // namespace enetstl

#endif  // ENETSTL_CORE_COMPARE_INL_H_
