#include "core/hash.h"

#include <array>

#include "core/hash_inl.h"
#include "core/multihash_inl.h"

namespace enetstl {

namespace {

// CRC32C (Castagnoli) table for the software fallback, generated at static
// initialization from the reflected polynomial.
const std::array<u32, 256>& Crc32cTable() {
  static const std::array<u32, 256> table = [] {
    std::array<u32, 256> t{};
    constexpr u32 kPoly = 0x82f63b78u;
    for (u32 i = 0; i < 256; ++i) {
      u32 crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      }
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

}  // namespace

u32 SoftCrc32c(const void* key, std::size_t len, u32 seed) {
  const auto& table = Crc32cTable();
  const u8* p = static_cast<const u8*>(key);
  u32 crc = ~seed;
  for (std::size_t i = 0; i < len; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ p[i]) & 0xffu];
  }
  return ~crc;
}

ENETSTL_NOINLINE u32 HwHashCrc(const void* key, std::size_t len, u32 seed) {
  ebpf::CompilerBarrier();
  return internal::HwHashCrcImpl(key, len, seed);
}

u32 XxHash32(const void* key, std::size_t len, u32 seed) {
  return internal::LaneHash(key, len, seed);
}

u32 XxHash32Bpf(const void* key, std::size_t len, u32 seed) {
  return internal::BpfLaneHashImpl(key, len, seed);
}

u64 FastHash64(const void* key, std::size_t len, u64 seed) {
  // fast-hash by Zilong Tan: 8-byte block mix + tail fold.
  constexpr u64 kM = 0x880355f21e6d1965ull;
  auto mix = [](u64 h) {
    h ^= h >> 23;
    h *= 0x2127599bf4325c37ull;
    h ^= h >> 47;
    return h;
  };
  const u8* p = static_cast<const u8*>(key);
  u64 h = seed ^ (len * kM);
  while (len >= 8) {
    u64 v;
    std::memcpy(&v, p, 8);
    h ^= mix(v);
    h *= kM;
    p += 8;
    len -= 8;
  }
  if (len > 0) {
    u64 v = 0;
    std::memcpy(&v, p, len);
    h ^= mix(v);
    h *= kM;
  }
  return mix(h);
}

ENETSTL_NOINLINE void HwHashCrcBatch(const void* keys, u32 stride,
                                     std::size_t len, u32 n, u32 seed,
                                     u32* out) {
  ebpf::CompilerBarrier();
  const u8* p = static_cast<const u8*>(keys);
  for (u32 i = 0; i < n; ++i) {
    out[i] = internal::HwHashCrcImpl(p + static_cast<std::size_t>(i) * stride,
                                     len, seed);
  }
}

ENETSTL_NOINLINE void HashPrefetchBatch(const void* keys, u32 stride,
                                        std::size_t len, u32 n, u32 seed,
                                        const void* base, u32 elem_size,
                                        u32 mask, u32* out) {
  ebpf::CompilerBarrier();
  const u8* p = static_cast<const u8*>(keys);
  const u8* b = static_cast<const u8*>(base);
  for (u32 i = 0; i < n; ++i) {
    const u32 h = internal::HwHashCrcImpl(
        p + static_cast<std::size_t>(i) * stride, len, seed);
    out[i] = h;
    internal::PrefetchRead(b + static_cast<std::size_t>(h & mask) * elem_size);
  }
}

ENETSTL_NOINLINE void MultiHashPrefetchBatch(const void* keys, u32 stride,
                                             std::size_t len, u32 n,
                                             u32 base_seed, u32 d, u32 mask,
                                             const void* base, u32 elem_size,
                                             u32 row_stride, u32* out) {
  ebpf::CompilerBarrier();
  if (!internal::LaneCountInRange(d)) {
    return;
  }
  const u8* p = static_cast<const u8*>(keys);
  const u8* b = static_cast<const u8*>(base);
  alignas(32) u32 h[8];
  for (u32 i = 0; i < n; ++i) {
    internal::MultiHashImpl(p + static_cast<std::size_t>(i) * stride, len,
                            base_seed, d, h);
    for (u32 r = 0; r < d; ++r) {
      const u32 pos = h[r] & mask;
      out[i * d + r] = pos;
      internal::PrefetchRead(
          b + (static_cast<std::size_t>(row_stride) * r + pos) * elem_size);
    }
  }
}

ENETSTL_NOINLINE void MultiHash8ToMem(const void* key, std::size_t len,
                                      u32 base_seed, u32 out[8]) {
  ebpf::CompilerBarrier();
  internal::MultiHash8Impl(key, len, base_seed, out);
  // The mandatory store of all 8 results is the point of this interface:
  // the caller reloads them from memory one by one.
  ebpf::CompilerBarrier();
}

}  // namespace enetstl
