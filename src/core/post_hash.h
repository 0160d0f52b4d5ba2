// Unified post-hashing operations (§4.3, "Algorithms: unified post-hashing
// operations").
//
// NFs rarely need the raw values of d hash functions — they need the *effect*
// of those values: counters incremented (count-min), bits set/tested (bloom),
// or signatures compared (d-ary cuckoo). eNetSTL therefore fuses the
// multi-hash computation with the post-op inside one kfunc: the 8 lane hashes
// stay in a SIMD register, are spilled once to the local stack, and the
// post-op runs right there. The result returned to the caller is a scalar (or
// nothing), eliminating the SIMD-register -> eBPF-memory -> eBPF-register
// double copy that the split interface (MultiHash8ToMem + caller loop) pays.
//
// All operations use LaneSeed(base_seed, r) as the r-th hash function and
// support 1 <= rows <= 8. A row count outside that range is rejected before
// any hashing: query forms return their empty result (0, false or -1 with
// *empty_out = -1), update forms leave the table untouched. Column counts are
// powers of two (col_mask).
#ifndef ENETSTL_CORE_POST_HASH_H_
#define ENETSTL_CORE_POST_HASH_H_

#include <cstddef>

#include "core/hash.h"
#include "ebpf/helper.h"
#include "ebpf/types.h"

namespace enetstl {

using ebpf::s32;

// Count-min update: counters[r * (col_mask + 1) + (h_r & col_mask)] += inc
// for r in [0, rows). Saturating at u32 max.
ENETSTL_NOINLINE void HashCnt(u32* counters, u32 rows, u32 col_mask,
                              const void* key, std::size_t klen, u32 base_seed,
                              u32 inc);

// Count-min query: min over the rows of the addressed counters.
ENETSTL_NOINLINE u32 HashCntMin(const u32* counters, u32 rows, u32 col_mask,
                                const void* key, std::size_t klen,
                                u32 base_seed);

// Bloom-filter add: sets bit (h_r & bit_mask) in the bitmap for each row.
// bit_mask + 1 must be the bitmap size in bits (a multiple of 64).
ENETSTL_NOINLINE void HashSetBits(u64* bitmap, u32 rows, u32 bit_mask,
                                  const void* key, std::size_t klen,
                                  u32 base_seed);

// Bloom-filter query: true iff all addressed bits are set.
ENETSTL_NOINLINE bool HashTestBits(const u64* bitmap, u32 rows, u32 bit_mask,
                                   const void* key, std::size_t klen,
                                   u32 base_seed);

// d-ary cuckoo probe: position p_r = h_r & tbl_mask; returns the first row r
// with table[p_r] == sig (writing p_r to *pos_out), or -1 if no row matches.
// When no row matches and empty_out is non-null, *empty_out receives the
// position of the first row whose slot holds kEmptySig (or -1) — the
// insertion candidate — saving the caller a second multi-hash pass.
inline constexpr u32 kEmptySig = 0;
ENETSTL_NOINLINE s32 HashCmp(const u32* table, u32 tbl_mask, const void* key,
                             std::size_t klen, u32 base_seed, u32 rows, u32 sig,
                             u32* pos_out, s32* empty_out);

// Vector-of-bloom-filters (DPDK membership-library style) fused ops: the
// table holds one u32 set-mask per position. Update ORs `set_mask` into the
// addressed positions; query ANDs the addressed positions and returns the
// result — the set-membership vector — as a scalar in a register.
ENETSTL_NOINLINE void HashMaskOr(u32* table, u32 rows, u32 tbl_mask,
                                 const void* key, std::size_t klen,
                                 u32 base_seed, u32 set_mask);
ENETSTL_NOINLINE u32 HashMaskAnd(const u32* table, u32 rows, u32 tbl_mask,
                                 const void* key, std::size_t klen,
                                 u32 base_seed);

// Burst form of HashMaskAnd: out[i] = HashMaskAnd(table, rows, tbl_mask,
// key_i, klen, base_seed) for n keys laid out `stride` bytes apart. Each
// key's lanes are hashed once and their table words ANDed in a register:
// no positions are stored across keys and no prefetch pass runs, which is
// what wins while the table sits in L2 (every VBF in this repository has
// 2^16 positions, 256 KiB). Far beyond L2 the two-stage
// MultiHashPrefetchBatch + gather-AND form overlaps more misses and is the
// faster one (EXPERIMENTS.md). A rejected row count zeroes out[0..n).
ENETSTL_NOINLINE void HashMaskAndBatch(const u32* table, u32 rows,
                                      u32 tbl_mask, const void* keys,
                                      u32 stride, std::size_t klen, u32 n,
                                      u32 base_seed, u32* out);

// Raw positions variant: writes the `rows` table positions (h_r & tbl_mask)
// to pos[]. Used where the post-op cannot be expressed by the fused forms;
// still one call for all rows.
ENETSTL_NOINLINE void HashPositions(u32* pos, u32 rows, u32 tbl_mask,
                                    const void* key, std::size_t klen,
                                    u32 base_seed);

}  // namespace enetstl

#endif  // ENETSTL_CORE_POST_HASH_H_
