#include "core/post_hash.h"

#include "core/multihash_inl.h"

namespace enetstl {

namespace {

// Spills the 8 lane hashes to the local stack exactly once and exposes them
// as an array. With AVX2 this is a single 32-byte aligned store from the
// register holding the fused computation. Callers check
// internal::LaneCountInRange(rows) first: h[] has room for 8 lanes only.
struct LaneHashes {
  alignas(32) u32 h[8];

  LaneHashes(const void* key, std::size_t klen, u32 base_seed, u32 rows) {
    internal::MultiHashImpl(key, klen, base_seed, rows, h);
  }
};

// HashMaskAnd's post-op, shared with its burst form so the two stay
// bit-identical: AND of the `rows` table words the lanes address.
u32 MaskAndRows(const u32* table, u32 rows, u32 tbl_mask, const void* key,
                std::size_t klen, u32 base_seed) {
  const LaneHashes lanes(key, klen, base_seed, rows);
  u32 result = 0xffffffffu;
  for (u32 r = 0; r < rows; ++r) {
    result &= table[lanes.h[r] & tbl_mask];
  }
  return result;
}

}  // namespace

ENETSTL_NOINLINE void HashCnt(u32* counters, u32 rows, u32 col_mask,
                              const void* key, std::size_t klen, u32 base_seed,
                              u32 inc) {
  ebpf::CompilerBarrier();
  if (!internal::LaneCountInRange(rows)) {
    return;
  }
  const LaneHashes lanes(key, klen, base_seed, rows);
  const u32 cols = col_mask + 1;
  for (u32 r = 0; r < rows; ++r) {
    u32& c = counters[r * cols + (lanes.h[r] & col_mask)];
    const u32 next = c + inc;
    c = next >= c ? next : 0xffffffffu;  // saturate on wrap
  }
}

ENETSTL_NOINLINE u32 HashCntMin(const u32* counters, u32 rows, u32 col_mask,
                                const void* key, std::size_t klen,
                                u32 base_seed) {
  ebpf::CompilerBarrier();
  if (!internal::LaneCountInRange(rows)) {
    return 0;
  }
  const LaneHashes lanes(key, klen, base_seed, rows);
  const u32 cols = col_mask + 1;
  u32 best = 0xffffffffu;
  for (u32 r = 0; r < rows; ++r) {
    const u32 c = counters[r * cols + (lanes.h[r] & col_mask)];
    best = c < best ? c : best;
  }
  return best;
}

ENETSTL_NOINLINE void HashSetBits(u64* bitmap, u32 rows, u32 bit_mask,
                                  const void* key, std::size_t klen,
                                  u32 base_seed) {
  ebpf::CompilerBarrier();
  if (!internal::LaneCountInRange(rows)) {
    return;
  }
  const LaneHashes lanes(key, klen, base_seed, rows);
  for (u32 r = 0; r < rows; ++r) {
    const u32 bit = lanes.h[r] & bit_mask;
    bitmap[bit >> 6] |= 1ull << (bit & 63);
  }
}

ENETSTL_NOINLINE bool HashTestBits(const u64* bitmap, u32 rows, u32 bit_mask,
                                   const void* key, std::size_t klen,
                                   u32 base_seed) {
  ebpf::CompilerBarrier();
  if (!internal::LaneCountInRange(rows)) {
    return false;
  }
  const LaneHashes lanes(key, klen, base_seed, rows);
  for (u32 r = 0; r < rows; ++r) {
    const u32 bit = lanes.h[r] & bit_mask;
    if (((bitmap[bit >> 6] >> (bit & 63)) & 1ull) == 0) {
      return false;
    }
  }
  return true;
}

ENETSTL_NOINLINE s32 HashCmp(const u32* table, u32 tbl_mask, const void* key,
                             std::size_t klen, u32 base_seed, u32 rows, u32 sig,
                             u32* pos_out, s32* empty_out) {
  ebpf::CompilerBarrier();
  if (!internal::LaneCountInRange(rows)) {
    if (empty_out != nullptr) {
      *empty_out = -1;
    }
    return -1;
  }
  const LaneHashes lanes(key, klen, base_seed, rows);
  s32 first_empty = -1;
  for (u32 r = 0; r < rows; ++r) {
    const u32 pos = lanes.h[r] & tbl_mask;
    const u32 stored = table[pos];
    if (stored == sig) {
      if (pos_out != nullptr) {
        *pos_out = pos;
      }
      return static_cast<s32>(r);
    }
    if (first_empty < 0 && stored == kEmptySig) {
      first_empty = static_cast<s32>(pos);
    }
  }
  if (empty_out != nullptr) {
    *empty_out = first_empty;
  }
  return -1;
}

ENETSTL_NOINLINE void HashMaskOr(u32* table, u32 rows, u32 tbl_mask,
                                 const void* key, std::size_t klen,
                                 u32 base_seed, u32 set_mask) {
  ebpf::CompilerBarrier();
  if (!internal::LaneCountInRange(rows)) {
    return;
  }
  const LaneHashes lanes(key, klen, base_seed, rows);
  for (u32 r = 0; r < rows; ++r) {
    table[lanes.h[r] & tbl_mask] |= set_mask;
  }
}

ENETSTL_NOINLINE u32 HashMaskAnd(const u32* table, u32 rows, u32 tbl_mask,
                                 const void* key, std::size_t klen,
                                 u32 base_seed) {
  ebpf::CompilerBarrier();
  if (!internal::LaneCountInRange(rows)) {
    return 0;
  }
  return MaskAndRows(table, rows, tbl_mask, key, klen, base_seed);
}

ENETSTL_NOINLINE void HashMaskAndBatch(const u32* table, u32 rows,
                                      u32 tbl_mask, const void* keys,
                                      u32 stride, std::size_t klen, u32 n,
                                      u32 base_seed, u32* out) {
  ebpf::CompilerBarrier();
  if (!internal::LaneCountInRange(rows)) {
    for (u32 i = 0; i < n; ++i) {
      out[i] = 0;
    }
    return;
  }
  const u8* p = static_cast<const u8*>(keys);
  for (u32 i = 0; i < n; ++i) {
    out[i] = MaskAndRows(table, rows, tbl_mask,
                         p + static_cast<std::size_t>(i) * stride, klen,
                         base_seed);
  }
}

ENETSTL_NOINLINE void HashPositions(u32* pos, u32 rows, u32 tbl_mask,
                                    const void* key, std::size_t klen,
                                    u32 base_seed) {
  ebpf::CompilerBarrier();
  if (!internal::LaneCountInRange(rows)) {
    return;
  }
  const LaneHashes lanes(key, klen, base_seed, rows);
  for (u32 r = 0; r < rows; ++r) {
    pos[r] = lanes.h[r] & tbl_mask;
  }
}

}  // namespace enetstl
