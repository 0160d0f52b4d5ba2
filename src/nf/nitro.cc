#include "nf/nitro.h"

#include "nf/nf_registry.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "core/hash.h"
#include "core/hash_inl.h"
#include "ebpf/helper.h"

namespace nf {

const NitroConfig& NitroBase::Checked(const NitroConfig& config) {
  if (config.rows < 1 || config.rows > 8 ||
      !std::has_single_bit(config.cols)) {
    throw std::invalid_argument(
        "NitroConfig: rows must be in [1, 8] and cols a power of two (rows " +
        std::to_string(config.rows) + ", cols " +
        std::to_string(config.cols) + ")");
  }
  return config;
}

u32 NitroBase::MedianOfRows(const u32* vals) const {
  u32 sorted[8];
  const u32 rows = config_.rows < 8 ? config_.rows : 8;
  std::copy(vals, vals + rows, sorted);
  std::sort(sorted, sorted + rows);
  if ((rows & 1u) != 0) {
    return sorted[rows / 2];
  }
  return (sorted[rows / 2 - 1] + sorted[rows / 2]) / 2;
}

namespace {

inline u32 ProbThreshold(double p) {
  if (p >= 1.0) {
    return 0xffffffffu;
  }
  return static_cast<u32>(p * 4294967296.0);
}

}  // namespace

// ---------------------------------------------------------------------------
// NitroEbpf: per-row helper-based coin flip + scalar hash.
// ---------------------------------------------------------------------------

NitroEbpf::NitroEbpf(const NitroConfig& config)
    : NitroBase(config),
      sketch_map_(1, config.rows * config.cols * sizeof(u32)),
      prob_threshold_(ProbThreshold(config.update_prob)) {}

void NitroEbpf::Update(const void* key, std::size_t len) {
  auto* counters = static_cast<u32*>(sketch_map_.LookupElem(0));
  if (counters == nullptr) {
    return;
  }
  for (u32 r = 0; r < config_.rows; ++r) {
    // One helper call per row per packet: the dominant cost at low p.
    const u32 coin = ebpf::helpers::BpfGetPrandomU32();
    if (coin >= prob_threshold_) {
      continue;
    }
    const u32 h = enetstl::XxHash32Bpf(key, len, enetstl::LaneSeed(config_.seed, r));
    counters[r * config_.cols + (h & col_mask_)] += inc_;
  }
}

u32 NitroEbpf::Query(const void* key, std::size_t len) {
  auto* counters = static_cast<u32*>(sketch_map_.LookupElem(0));
  if (counters == nullptr) {
    return 0;
  }
  u32 vals[8];
  for (u32 r = 0; r < config_.rows; ++r) {
    const u32 h = enetstl::XxHash32Bpf(key, len, enetstl::LaneSeed(config_.seed, r));
    vals[r] = counters[r * config_.cols + (h & col_mask_)];
  }
  return MedianOfRows(vals);
}

// ---------------------------------------------------------------------------
// NitroKernel: inline PRNG + inline hardware CRC.
// ---------------------------------------------------------------------------

NitroKernel::NitroKernel(const NitroConfig& config)
    : NitroBase(config),
      counters_(static_cast<std::size_t>(config.rows) * config.cols, 0),
      geo_pool_(4096, config.update_prob, 0x2545f4914f6cdd1dull),
      skip_(geo_pool_.NextGeo() - 1) {}

void NitroKernel::Update(const void* key, std::size_t len) {
  u32 r = skip_;
  while (r < config_.rows) {
    const u32 h = enetstl::internal::HwHashCrcImpl(
        key, len, enetstl::LaneSeed(config_.seed, r));
    counters_[r * config_.cols + (h & col_mask_)] += inc_;
    r += geo_pool_.NextGeo();
  }
  skip_ = r - config_.rows;
}

u32 NitroKernel::Query(const void* key, std::size_t len) {
  u32 vals[8];
  for (u32 r = 0; r < config_.rows; ++r) {
    const u32 h = enetstl::internal::HwHashCrcImpl(
        key, len, enetstl::LaneSeed(config_.seed, r));
    vals[r] = counters_[r * config_.cols + (h & col_mask_)];
  }
  return MedianOfRows(vals);
}

// ---------------------------------------------------------------------------
// NitroEnetstl: geometric random pool + hardware CRC kfuncs.
// ---------------------------------------------------------------------------

NitroEnetstl::NitroEnetstl(const NitroConfig& config)
    : NitroBase(config),
      sketch_map_(1, config.rows * config.cols * sizeof(u32)),
      geo_pool_(4096, config.update_prob, 0x9e3779b97f4a7c15ull),
      skip_(geo_pool_.NextGeo() - 1) {}

void NitroEnetstl::Update(const void* key, std::size_t len) {
  auto* counters = static_cast<u32*>(sketch_map_.LookupElem(0));
  if (counters == nullptr) {
    return;
  }
  // Geometric skipping: visit only the sampled rows; the skip distance
  // carries over across packets so the expected touch rate is exactly p.
  u32 r = skip_;
  while (r < config_.rows) {
    const u32 h =
        enetstl::HwHashCrc(key, len, enetstl::LaneSeed(config_.seed, r));
    counters[r * config_.cols + (h & col_mask_)] += inc_;
    r += geo_pool_.NextGeo();
  }
  skip_ = r - config_.rows;
}

u32 NitroEnetstl::Query(const void* key, std::size_t len) {
  auto* counters = static_cast<u32*>(sketch_map_.LookupElem(0));
  if (counters == nullptr) {
    return 0;
  }
  u32 vals[8];
  for (u32 r = 0; r < config_.rows; ++r) {
    const u32 h =
        enetstl::HwHashCrc(key, len, enetstl::LaneSeed(config_.seed, r));
    vals[r] = counters[r * config_.cols + (h & col_mask_)];
  }
  return MedianOfRows(vals);
}

namespace builtin {

void RegisterNitro(NfRegistry& registry) {
  NfEntry entry;
  entry.name = "nitro-sketch";
  entry.category = "sketching";
  entry.variants = {Variant::kEbpf, Variant::kKernel, Variant::kEnetstl};
  entry.factory = [](Variant v) -> std::unique_ptr<NetworkFunction> {
    NitroConfig config;
    config.rows = 8;
    config.cols = 4096;
    config.update_prob = 1.0 / 16;
    switch (v) {
      case Variant::kEbpf:
        return std::make_unique<NitroEbpf>(config);
      case Variant::kKernel:
        return std::make_unique<NitroKernel>(config);
      case Variant::kEnetstl:
        return std::make_unique<NitroEnetstl>(config);
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
