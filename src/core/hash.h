// Hash algorithms of eNetSTL.
//
// Three tiers, matching §4.3 of the paper:
//  * HwHashCrc — single hash using the hardware CRC32C instruction (the
//    DPDK-style fast path used when an NF needs only 1–2 hash functions).
//  * XxHash32 / FastHash64 — scalar software hashes. These are what the
//    pure-eBPF NF variants must use (no SIMD, no CRC instruction in the
//    eBPF ISA), and also serve as the reference the SIMD multi-hash is
//    validated against.
//  * MultiHash8 — eight hash values of one key computed in parallel with
//    AVX2 (scalar fallback produces bit-identical results). The low-level
//    "hash to memory" form lives here for the Figure 6 ablation; the fused
//    hash+post-op interfaces that keep results in SIMD registers are in
//    post_hash.h.
#ifndef ENETSTL_CORE_HASH_H_
#define ENETSTL_CORE_HASH_H_

#include <cstddef>

#include "ebpf/helper.h"
#include "ebpf/types.h"

namespace enetstl {

using ebpf::u32;
using ebpf::u64;
using ebpf::u8;

// Hardware CRC32C (SSE4.2) over the key; software table fallback otherwise.
// Exposed as a kfunc ("hw_hash_crc"): scalar in, scalar out, register-only.
ENETSTL_NOINLINE u32 HwHashCrc(const void* key, std::size_t len, u32 seed);

// Software CRC32C (used transparently when SSE4.2 is unavailable; also used
// by tests to validate the hardware path).
u32 SoftCrc32c(const void* key, std::size_t len, u32 seed);

// Scalar software hash — an xxHash-style ARX construction with four
// accumulators and a two-multiply avalanche. This is the per-lane function
// of the SIMD multi-hash: MultiHash8(key)[i] == XxHash32(key, len, seed_i).
u32 XxHash32(const void* key, std::size_t len, u32 seed);

// The same function as computed by a JITed eBPF program: identical output,
// but every rotate is expanded to shift/shift/or because the eBPF ISA has no
// rotate instruction (the native compiler is barred from re-fusing it). The
// pure-eBPF NF variants hash with this; it models the JIT-vs-native codegen
// gap of the paper's eBPF baselines.
u32 XxHash32Bpf(const void* key, std::size_t len, u32 seed);

// Scalar fasthash64 (Zilong Tan's fast-hash): the 64-bit software hash of
// the library's surface, for NFs that key structures by 64-bit digests.
u64 FastHash64(const void* key, std::size_t len, u64 seed);

// Murmur3's 32-bit finalizer: a cheap NONLINEAR avalanche. Use this (not a
// second seeded CRC) to derive tags/fingerprints/slots from a CRC hash:
// CRC32C is affine in its seed, so CRC(k, s1) ^ CRC(k, s2) is a
// key-independent constant and two CRC "hash functions" are fully
// correlated. Fmix32 breaks that correlation.
inline constexpr u32 Fmix32(u32 h) {
  h ^= h >> 16;
  h *= 0x85ebca6bu;
  h ^= h >> 13;
  h *= 0xc2b2ae35u;
  h ^= h >> 16;
  return h;
}

// Seed of lane i given a base seed; lanes use fixed golden-ratio offsets so
// the 8 hash functions are pairwise independent for sketching purposes.
inline constexpr u32 kHashLaneStep = 0x9e3779b1u;
inline u32 LaneSeed(u32 base_seed, u32 lane) { return base_seed + lane * kHashLaneStep; }

// Batched single-hash: hashes n fixed-size keys laid out `stride` bytes
// apart and stores the n results — one call boundary amortized over a whole
// burst instead of one per packet. Exposed as kfunc "enetstl_hw_hash_crc_batch".
ENETSTL_NOINLINE void HwHashCrcBatch(const void* keys, u32 stride,
                                     std::size_t len, u32 n, u32 seed,
                                     u32* out);

// Fused batched hash + bucket prefetch — stage 1 of a two-stage batched
// lookup (the CuckooSwitch/Katran batching pattern). For each key i it
// computes out[i] = crc(key_i, seed) and issues a software prefetch of
//   base + (out[i] & mask) * elem_size,
// so by the time the caller's probe stage (stage 2) touches bucket i its
// cache line is already in flight. Exposed as kfunc
// "enetstl_hash_prefetch_batch" — an eBPF program has no prefetch
// instruction, so the grouped prefetch is only reachable through the
// library boundary.
ENETSTL_NOINLINE void HashPrefetchBatch(const void* keys, u32 stride,
                                        std::size_t len, u32 n, u32 seed,
                                        const void* base, u32 elem_size,
                                        u32 mask, u32* out);

// Batched multi-hash + prefetch for d-row structures (sketches, d-ary cuckoo
// tables): for each key i and row r < d it computes the masked position
//   out[i*d + r] = h_r(key_i) & mask        (h_r = lane hash, seed_r)
// and prefetches base + (row_stride * r + out[i*d + r]) * elem_size.
// row_stride is the element distance between consecutive row bases
// (cols for a rows x cols sketch, 0 when all rows index one shared array).
// A d outside [1, 8] writes nothing. Exposed as kfunc
// "enetstl_multi_hash_prefetch_batch".
ENETSTL_NOINLINE void MultiHashPrefetchBatch(const void* keys, u32 stride,
                                             std::size_t len, u32 n,
                                             u32 base_seed, u32 d, u32 mask,
                                             const void* base, u32 elem_size,
                                             u32 row_stride, u32* out);

// Low-level multi-hash: computes 8 lane hashes and STORES them to out[0..7].
// This is the counter-example interface from Listing 2 of the paper (SIMD
// speedup negated by the mandatory store + reload); kept for the Figure 6
// ablation and for callers that genuinely need all raw hash values.
ENETSTL_NOINLINE void MultiHash8ToMem(const void* key, std::size_t len,
                                      u32 base_seed, u32 out[8]);

}  // namespace enetstl

#endif  // ENETSTL_CORE_HASH_H_
