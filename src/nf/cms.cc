#include "nf/cms.h"

#include "nf/nf_registry.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/hash.h"
#include "core/hash_inl.h"
#include "core/multihash_inl.h"
#include "core/post_hash.h"

namespace nf {

// ---------------------------------------------------------------------------
// CmsBase
// ---------------------------------------------------------------------------

const CmsConfig& CmsBase::Checked(const CmsConfig& config) {
  if (config.rows < 1 || config.rows > 8 ||
      !std::has_single_bit(config.cols)) {
    throw std::invalid_argument(
        "CmsConfig: rows must be in [1, 8] and cols a power of two (rows " +
        std::to_string(config.rows) + ", cols " +
        std::to_string(config.cols) + ")");
  }
  return config;
}

void CmsBase::ProcessBurst(ebpf::XdpContext* ctxs, u32 count,
                           ebpf::XdpAction* verdicts) {
  ForEachNfChunk(count, [&](u32 start, u32 chunk) {
    ebpf::FiveTuple keys[kMaxNfBurst];
    u32 parsed = 0;
    for (u32 i = 0; i < chunk; ++i) {
      if (ebpf::ParseFiveTuple(ctxs[start + i], &keys[parsed])) {
        verdicts[start + i] = ebpf::XdpAction::kDrop;
        ++parsed;
      } else {
        verdicts[start + i] = ebpf::XdpAction::kAborted;
      }
    }
    UpdateBatch(keys, sizeof(ebpf::FiveTuple), sizeof(ebpf::FiveTuple),
                parsed, 1);
  });
}

// ---------------------------------------------------------------------------
// CmsEbpf: percpu blob map + scalar hashes, the pure-eBPF shape.
// ---------------------------------------------------------------------------

CmsEbpf::CmsEbpf(const CmsConfig& config)
    : CmsBase(config),
      sketch_map_(/*max_entries=*/1,
                  /*value_size=*/config.rows * config.cols * sizeof(u32)) {}

void CmsEbpf::Update(const void* key, std::size_t len, u32 inc) {
  auto* counters = static_cast<u32*>(sketch_map_.LookupElem(0));
  if (counters == nullptr) {  // verifier-mandated null check
    return;
  }
  for (u32 r = 0; r < config_.rows; ++r) {
    // Scalar software hash per row: no SIMD (and no rotate) in the eBPF ISA.
    const u32 h =
        enetstl::XxHash32Bpf(key, len, enetstl::LaneSeed(config_.seed, r));
    u32& c = counters[r * config_.cols + (h & col_mask_)];
    const u32 next = c + inc;
    c = next >= c ? next : 0xffffffffu;
  }
}

u32 CmsEbpf::Query(const void* key, std::size_t len) {
  auto* counters = static_cast<u32*>(sketch_map_.LookupElem(0));
  if (counters == nullptr) {
    return 0;
  }
  u32 best = 0xffffffffu;
  for (u32 r = 0; r < config_.rows; ++r) {
    const u32 h = enetstl::XxHash32Bpf(key, len, enetstl::LaneSeed(config_.seed, r));
    const u32 c = counters[r * config_.cols + (h & col_mask_)];
    best = c < best ? c : best;
  }
  return best;
}

void CmsEbpf::Reset() {
  for (u32 cpu = 0; cpu < ebpf::kNumPossibleCpus; ++cpu) {
    void* blob = sketch_map_.LookupElemOnCpu(0, cpu);
    std::memset(blob, 0, sketch_map_.value_size());
  }
}

// ---------------------------------------------------------------------------
// CmsKernel: native implementation — fused multi-hash inlined, no boundary.
// ---------------------------------------------------------------------------

CmsKernel::CmsKernel(const CmsConfig& config)
    : CmsBase(config),
      counters_(static_cast<std::size_t>(config.rows) * config.cols, 0) {}

void CmsKernel::Update(const void* key, std::size_t len, u32 inc) {
  alignas(32) u32 h[8];
  if (config_.rows <= 2) {
    h[0] = enetstl::internal::HwHashCrcImpl(key, len, config_.seed);
    h[1] = enetstl::Fmix32(h[0] + 0x9e3779b9u);
  } else {
    enetstl::internal::MultiHashImpl(key, len, config_.seed, config_.rows, h);
  }
  for (u32 r = 0; r < config_.rows; ++r) {
    u32& c = counters_[r * config_.cols + (h[r] & col_mask_)];
    const u32 next = c + inc;
    c = next >= c ? next : 0xffffffffu;
  }
}

u32 CmsKernel::Query(const void* key, std::size_t len) {
  alignas(32) u32 h[8];
  if (config_.rows <= 2) {
    h[0] = enetstl::internal::HwHashCrcImpl(key, len, config_.seed);
    h[1] = enetstl::Fmix32(h[0] + 0x9e3779b9u);
  } else {
    enetstl::internal::MultiHashImpl(key, len, config_.seed, config_.rows, h);
  }
  u32 best = 0xffffffffu;
  for (u32 r = 0; r < config_.rows; ++r) {
    const u32 c = counters_[r * config_.cols + (h[r] & col_mask_)];
    best = c < best ? c : best;
  }
  return best;
}

void CmsKernel::Reset() { std::fill(counters_.begin(), counters_.end(), 0u); }

void CmsKernel::UpdateBatch(const void* keys, u32 stride, std::size_t len,
                            u32 n, u32 inc) {
  const u8* p = static_cast<const u8*>(keys);
  u32* counters = counters_.data();
  ForEachNfChunk(n, [&](u32 start, u32 chunk) {
    u32 pos[kMaxNfBurst * 8];
    // Stage 1: all row positions of every key in the burst, prefetched.
    for (u32 i = 0; i < chunk; ++i) {
      const void* key = p + static_cast<std::size_t>(start + i) * stride;
      alignas(32) u32 h[8];
      if (config_.rows <= 2) {
        h[0] = enetstl::internal::HwHashCrcImpl(key, len, config_.seed);
        h[1] = enetstl::Fmix32(h[0] + 0x9e3779b9u);
      } else {
        enetstl::internal::MultiHashImpl(key, len, config_.seed, config_.rows,
                                         h);
      }
      for (u32 r = 0; r < config_.rows; ++r) {
        const u32 idx = r * config_.cols + (h[r] & col_mask_);
        pos[i * 8 + r] = idx;
        enetstl::internal::PrefetchRead(&counters[idx]);
      }
    }
    // Stage 2: saturating increments.
    for (u32 i = 0; i < chunk; ++i) {
      for (u32 r = 0; r < config_.rows; ++r) {
        u32& c = counters[pos[i * 8 + r]];
        const u32 next = c + inc;
        c = next >= c ? next : 0xffffffffu;
      }
    }
  });
}

// ---------------------------------------------------------------------------
// CmsEnetstl: eBPF program shape using the fused eNetSTL kfuncs.
// ---------------------------------------------------------------------------

CmsEnetstl::CmsEnetstl(const CmsConfig& config)
    : CmsBase(config),
      sketch_map_(/*max_entries=*/1,
                  /*value_size=*/config.rows * config.cols * sizeof(u32)) {}

void CmsEnetstl::Update(const void* key, std::size_t len, u32 inc) {
  auto* counters = static_cast<u32*>(sketch_map_.LookupElem(0));
  if (counters == nullptr) {
    return;
  }
  if (config_.rows <= 2) {
    // Few hash functions: one hardware CRC beats the SIMD setup cost. The
    // second row's position is derived through the nonlinear finalizer — a
    // second seeded CRC would be affinely correlated with the first and the
    // two rows would share every collision (effectively d = 1).
    const u32 h0 = enetstl::HwHashCrc(key, len, config_.seed);
    u32 h = h0;
    for (u32 r = 0; r < config_.rows; ++r) {
      u32& c = counters[r * config_.cols + (h & col_mask_)];
      const u32 next = c + inc;
      c = next >= c ? next : 0xffffffffu;
      h = enetstl::Fmix32(h0 + 0x9e3779b9u);
    }
    return;
  }
  enetstl::HashCnt(counters, config_.rows, col_mask_, key, len, config_.seed,
                   inc);
}

u32 CmsEnetstl::Query(const void* key, std::size_t len) {
  auto* counters = static_cast<u32*>(sketch_map_.LookupElem(0));
  if (counters == nullptr) {
    return 0;
  }
  if (config_.rows <= 2) {
    const u32 h0 = enetstl::HwHashCrc(key, len, config_.seed);
    u32 h = h0;
    u32 best = 0xffffffffu;
    for (u32 r = 0; r < config_.rows; ++r) {
      const u32 c = counters[r * config_.cols + (h & col_mask_)];
      best = c < best ? c : best;
      h = enetstl::Fmix32(h0 + 0x9e3779b9u);
    }
    return best;
  }
  return enetstl::HashCntMin(counters, config_.rows, col_mask_, key, len,
                             config_.seed);
}

void CmsEnetstl::Reset() {
  for (u32 cpu = 0; cpu < ebpf::kNumPossibleCpus; ++cpu) {
    void* blob = sketch_map_.LookupElemOnCpu(0, cpu);
    std::memset(blob, 0, sketch_map_.value_size());
  }
}

void CmsEnetstl::UpdateBatch(const void* keys, u32 stride, std::size_t len,
                             u32 n, u32 inc) {
  auto* counters = static_cast<u32*>(sketch_map_.LookupElem(0));
  if (counters == nullptr) {
    return;
  }
  const u8* p = static_cast<const u8*>(keys);
  ForEachNfChunk(n, [&](u32 start, u32 chunk) {
    if (config_.rows <= 2) {
      // Few hash functions: batched hardware-CRC path. Stage 1 hashes the
      // burst and prefetches every row-0 counter; row 1's position derives
      // from h0 through the nonlinear finalizer, exactly as the scalar path.
      u32 h0[kMaxNfBurst];
      enetstl::HashPrefetchBatch(p + static_cast<std::size_t>(start) * stride,
                                 stride, len, chunk, config_.seed, counters,
                                 static_cast<u32>(sizeof(u32)), col_mask_, h0);
      for (u32 i = 0; i < chunk; ++i) {
        u32 h = h0[i];
        for (u32 r = 0; r < config_.rows; ++r) {
          u32& c = counters[r * config_.cols + (h & col_mask_)];
          const u32 next = c + inc;
          c = next >= c ? next : 0xffffffffu;
          h = enetstl::Fmix32(h0[i] + 0x9e3779b9u);
        }
      }
      return;  // next chunk
    }
    // Stage 1: one kfunc computes every row position of every key and
    // prefetches the addressed counters (row r's base is r * cols into the
    // flat counter array).
    u32 pos[kMaxNfBurst * 8];
    enetstl::MultiHashPrefetchBatch(
        p + static_cast<std::size_t>(start) * stride, stride, len, chunk,
        config_.seed, config_.rows, col_mask_, counters,
        static_cast<u32>(sizeof(u32)), /*row_stride=*/config_.cols, pos);
    // Stage 2: saturating increments.
    for (u32 i = 0; i < chunk; ++i) {
      for (u32 r = 0; r < config_.rows; ++r) {
        u32& c = counters[r * config_.cols + pos[i * config_.rows + r]];
        const u32 next = c + inc;
        c = next >= c ? next : 0xffffffffu;
      }
    }
  });
}

namespace builtin {

void RegisterCms(NfRegistry& registry) {
  NfEntry entry;
  entry.name = "count-min-sketch";
  entry.category = "sketching";
  entry.variants = {Variant::kEbpf, Variant::kKernel, Variant::kEnetstl};
  entry.caps.batched = true;
  entry.factory = [](Variant v) -> std::unique_ptr<NetworkFunction> {
    CmsConfig config;
    config.rows = 8;
    config.cols = 4096;
    switch (v) {
      case Variant::kEbpf:
        return std::make_unique<CmsEbpf>(config);
      case Variant::kKernel:
        return std::make_unique<CmsKernel>(config);
      case Variant::kEnetstl:
        return std::make_unique<CmsEnetstl>(config);
    }
    return nullptr;
  };
  entry.prime = [](const std::vector<NetworkFunction*>&, const BenchEnv& env) {
    return env.zipf;
  };
  registry.Register(std::move(entry));
}

}  // namespace builtin

}  // namespace nf
