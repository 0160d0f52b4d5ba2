#include "nf/heavykeeper.h"

#include "nf/nf_registry.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/compare.h"
#include "core/compare_inl.h"
#include "core/hash.h"
#include "core/hash_inl.h"
#include "core/multihash_inl.h"
#include "core/post_hash.h"
#include "ebpf/helper.h"

namespace nf {

namespace {

constexpr u32 kFpSeedXor = 0x85ebca77u;

inline u16 MakeFp(u32 h) {
  const u16 fp = static_cast<u16>(h >> 16);
  return fp == 0 ? u16{1} : fp;
}

// Core bucket update shared by all variants (scalar; the variant-specific
// parts — hashing, randomness, top-k reduce — are supplied by the caller).
// Returns the flow's estimate after the update.
template <typename CoinFn>
u32 UpdateBuckets(HkBucket* buckets, const u32* pos, u32 rows, u32 cols,
                  u16 fp, CoinFn coin, const u32* decay_thresholds,
                  u32 decay_cap) {
  u32 est = 0;
  for (u32 r = 0; r < rows; ++r) {
    HkBucket& b = buckets[r * cols + pos[r]];
    if (b.fp == fp) {
      ++b.count;
      est = b.count > est ? b.count : est;
    } else if (b.count == 0) {
      b.fp = fp;
      b.count = 1;
      est = est > 1 ? est : 1;
    } else {
      const u32 idx = b.count < decay_cap ? b.count : decay_cap - 1;
      if (coin() < decay_thresholds[idx]) {
        if (--b.count == 0) {
          b.fp = fp;
          b.count = 1;
          est = est > 1 ? est : 1;
        }
      }
    }
  }
  return est;
}

}  // namespace

const HeavyKeeperConfig& HeavyKeeperBase::Checked(
    const HeavyKeeperConfig& config) {
  if (config.rows < 1 || config.rows > 8 ||
      !std::has_single_bit(config.cols)) {
    throw std::invalid_argument(
        "HeavyKeeperConfig: rows must be in [1, 8] and cols a power of "
        "two (rows " + std::to_string(config.rows) + ", cols " +
        std::to_string(config.cols) + ")");
  }
  return config;
}

HeavyKeeperBase::HeavyKeeperBase(const HeavyKeeperConfig& config)
    : config_(Checked(config)), col_mask_(config.cols - 1) {
  decay_thresholds_.resize(kDecayCap);
  for (u32 c = 0; c < kDecayCap; ++c) {
    const double p = std::pow(config.decay_base, -static_cast<double>(c));
    decay_thresholds_[c] =
        p >= 1.0 ? 0xffffffffu : static_cast<u32>(p * 4294967296.0);
  }
}

// ---------------------------------------------------------------------------
// HeavyKeeperEbpf
// ---------------------------------------------------------------------------

namespace {

struct HkLayout {
  HkBucket* buckets;
  u32* flows;
  u32* ests;
};

inline HkLayout ViewBlob(void* blob, const HeavyKeeperConfig& cfg) {
  HkLayout v;
  v.buckets = static_cast<HkBucket*>(blob);
  v.flows = reinterpret_cast<u32*>(v.buckets +
                                   static_cast<std::size_t>(cfg.rows) * cfg.cols);
  v.ests = v.flows + cfg.topk;
  return v;
}

inline u32 BlobSize(const HeavyKeeperConfig& cfg) {
  return static_cast<u32>(static_cast<std::size_t>(cfg.rows) * cfg.cols *
                              sizeof(HkBucket) +
                          2u * cfg.topk * sizeof(u32));
}

// Family-owned state-transfer blob, shared by the three variants: a {rows,
// cols, topk} geometry header followed by the raw bucket array and the top-k
// flow/estimate tables. The top-k tables are position-free, so they re-home
// exactly under any variant pairing; the bucket array is laid out by the
// exporter's hash family, so bucket-level estimates survive exactly only
// when the importer hashes the same way (a same-variant swap).
bool HkExportState(const HeavyKeeperConfig& cfg, const HkBucket* buckets,
                   const u32* flows, const u32* ests, std::vector<u8>& out) {
  const auto append = [&out](const void* p, std::size_t n) {
    const auto* bytes = static_cast<const u8*>(p);
    out.insert(out.end(), bytes, bytes + n);
  };
  append(&cfg.rows, sizeof(u32));
  append(&cfg.cols, sizeof(u32));
  append(&cfg.topk, sizeof(u32));
  append(buckets, static_cast<std::size_t>(cfg.rows) * cfg.cols * sizeof(HkBucket));
  append(flows, cfg.topk * sizeof(u32));
  append(ests, cfg.topk * sizeof(u32));
  return true;
}

bool HkImportState(const HeavyKeeperConfig& cfg, HkBucket* buckets, u32* flows,
                   u32* ests, const u8* data, std::size_t len) {
  u32 geom[3];
  if (len < sizeof(geom)) {
    return false;
  }
  std::memcpy(geom, data, sizeof(geom));
  if (geom[0] != cfg.rows || geom[1] != cfg.cols || geom[2] != cfg.topk) {
    return false;  // geometry mismatch: the blob cannot be re-homed
  }
  const std::size_t bucket_bytes =
      static_cast<std::size_t>(cfg.rows) * cfg.cols * sizeof(HkBucket);
  const std::size_t top_bytes = cfg.topk * sizeof(u32);
  if (len != sizeof(geom) + bucket_bytes + 2 * top_bytes) {
    return false;
  }
  const u8* p = data + sizeof(geom);
  std::memcpy(buckets, p, bucket_bytes);
  p += bucket_bytes;
  std::memcpy(flows, p, top_bytes);
  p += top_bytes;
  std::memcpy(ests, p, top_bytes);
  return true;
}

}  // namespace

HeavyKeeperEbpf::HeavyKeeperEbpf(const HeavyKeeperConfig& config)
    : HeavyKeeperBase(config), state_map_(1, BlobSize(config)) {}

void HeavyKeeperEbpf::Update(const void* key, std::size_t len, u32 flow_id) {
  void* blob = state_map_.LookupElem(0);
  if (blob == nullptr) {
    return;
  }
  HkLayout v = ViewBlob(blob, config_);
  u32 pos[8];
  for (u32 r = 0; r < config_.rows; ++r) {
    pos[r] = enetstl::XxHash32Bpf(key, len, enetstl::LaneSeed(config_.seed, r)) &
             col_mask_;
  }
  const u16 fp =
      MakeFp(enetstl::XxHash32Bpf(key, len, config_.seed ^ kFpSeedXor));
  const u32 est = UpdateBuckets(
      v.buckets, pos, config_.rows, config_.cols, fp,
      [] { return ebpf::helpers::BpfGetPrandomU32(); },
      decay_thresholds_.data(), kDecayCap);
  // Top-k maintenance, all scalar.
  const ebpf::s32 idx = enetstl::scalar::FindU32(v.flows, config_.topk, flow_id);
  if (idx >= 0) {
    if (est > v.ests[idx]) {
      v.ests[idx] = est;
    }
    return;
  }
  u32 min_val = 0;
  const ebpf::s32 min_idx =
      enetstl::scalar::MinIndexU32(v.ests, config_.topk, &min_val);
  if (min_idx >= 0 && est > min_val) {
    v.flows[min_idx] = flow_id;
    v.ests[min_idx] = est;
  }
}

u32 HeavyKeeperEbpf::Query(const void* key, std::size_t len) {
  void* blob = state_map_.LookupElem(0);
  if (blob == nullptr) {
    return 0;
  }
  HkLayout v = ViewBlob(blob, config_);
  const u16 fp =
      MakeFp(enetstl::XxHash32Bpf(key, len, config_.seed ^ kFpSeedXor));
  u32 best = 0;
  for (u32 r = 0; r < config_.rows; ++r) {
    const u32 pos =
        enetstl::XxHash32Bpf(key, len, enetstl::LaneSeed(config_.seed, r)) &
        col_mask_;
    const HkBucket& b = v.buckets[r * config_.cols + pos];
    if (b.fp == fp && b.count > best) {
      best = b.count;
    }
  }
  return best;
}

std::vector<HkTopEntry> HeavyKeeperEbpf::TopK() const {
  auto* self = const_cast<HeavyKeeperEbpf*>(this);
  void* blob = self->state_map_.LookupElem(0);
  HkLayout v = ViewBlob(blob, config_);
  std::vector<HkTopEntry> out;
  for (u32 i = 0; i < config_.topk; ++i) {
    if (v.ests[i] > 0) {
      out.push_back({v.flows[i], v.ests[i]});
    }
  }
  return out;
}

bool HeavyKeeperEbpf::ExportState(std::vector<u8>& out) const {
  auto* self = const_cast<HeavyKeeperEbpf*>(this);
  void* blob = self->state_map_.LookupElem(0);
  HkLayout v = ViewBlob(blob, config_);
  return HkExportState(config_, v.buckets, v.flows, v.ests, out);
}

bool HeavyKeeperEbpf::ImportState(const u8* data, std::size_t len) {
  void* blob = state_map_.LookupElem(0);
  HkLayout v = ViewBlob(blob, config_);
  return HkImportState(config_, v.buckets, v.flows, v.ests, data, len);
}

// ---------------------------------------------------------------------------
// HeavyKeeperKernel
// ---------------------------------------------------------------------------

HeavyKeeperKernel::HeavyKeeperKernel(const HeavyKeeperConfig& config)
    : HeavyKeeperBase(config),
      buckets_(static_cast<std::size_t>(config.rows) * config.cols),
      top_flows_(config.topk, 0),
      top_ests_(config.topk, 0) {}

void HeavyKeeperKernel::Update(const void* key, std::size_t len, u32 flow_id) {
  alignas(32) u32 h[8];
  enetstl::internal::MultiHashImpl(key, len, config_.seed, config_.rows, h);
  u32 pos[8];
  for (u32 r = 0; r < config_.rows; ++r) {
    pos[r] = h[r] & col_mask_;
  }
  const u16 fp = MakeFp(
      enetstl::internal::HwHashCrcImpl(key, len, config_.seed ^ kFpSeedXor));
  const u32 est = UpdateBuckets(
      buckets_.data(), pos, config_.rows, config_.cols, fp,
      [this] {
        rng_state_ ^= rng_state_ << 13;
        rng_state_ ^= rng_state_ >> 7;
        rng_state_ ^= rng_state_ << 17;
        return static_cast<u32>(rng_state_);
      },
      decay_thresholds_.data(), kDecayCap);
  const ebpf::s32 idx = enetstl::internal::FindU32Impl(top_flows_.data(),
                                                       config_.topk, flow_id);
  if (idx >= 0) {
    if (est > top_ests_[idx]) {
      top_ests_[idx] = est;
    }
    return;
  }
  u32 min_val = 0;
  const ebpf::s32 min_idx = enetstl::internal::MinIndexU32Impl(
      top_ests_.data(), config_.topk, &min_val);
  if (min_idx >= 0 && est > min_val) {
    top_flows_[min_idx] = flow_id;
    top_ests_[min_idx] = est;
  }
}

u32 HeavyKeeperKernel::Query(const void* key, std::size_t len) {
  alignas(32) u32 h[8];
  enetstl::internal::MultiHashImpl(key, len, config_.seed, config_.rows, h);
  const u16 fp = MakeFp(
      enetstl::internal::HwHashCrcImpl(key, len, config_.seed ^ kFpSeedXor));
  u32 best = 0;
  for (u32 r = 0; r < config_.rows; ++r) {
    const HkBucket& b = buckets_[r * config_.cols + (h[r] & col_mask_)];
    if (b.fp == fp && b.count > best) {
      best = b.count;
    }
  }
  return best;
}

std::vector<HkTopEntry> HeavyKeeperKernel::TopK() const {
  std::vector<HkTopEntry> out;
  for (u32 i = 0; i < config_.topk; ++i) {
    if (top_ests_[i] > 0) {
      out.push_back({top_flows_[i], top_ests_[i]});
    }
  }
  return out;
}

bool HeavyKeeperKernel::ExportState(std::vector<u8>& out) const {
  return HkExportState(config_, buckets_.data(), top_flows_.data(),
                       top_ests_.data(), out);
}

bool HeavyKeeperKernel::ImportState(const u8* data, std::size_t len) {
  return HkImportState(config_, buckets_.data(), top_flows_.data(),
                       top_ests_.data(), data, len);
}

// ---------------------------------------------------------------------------
// HeavyKeeperEnetstl
// ---------------------------------------------------------------------------

HeavyKeeperEnetstl::HeavyKeeperEnetstl(const HeavyKeeperConfig& config)
    : HeavyKeeperBase(config),
      state_map_(1, BlobSize(config)),
      rpool_(4096, 0x243f6a8885a308d3ull) {}

void HeavyKeeperEnetstl::Update(const void* key, std::size_t len, u32 flow_id) {
  void* blob = state_map_.LookupElem(0);
  if (blob == nullptr) {
    return;
  }
  HkLayout v = ViewBlob(blob, config_);
  // One fused kfunc call computes every row position.
  u32 pos[8];
  enetstl::HashPositions(pos, config_.rows, col_mask_, key, len, config_.seed);
  const u16 fp =
      MakeFp(enetstl::HwHashCrc(key, len, config_.seed ^ kFpSeedXor));
  const u32 est = UpdateBuckets(
      v.buckets, pos, config_.rows, config_.cols, fp,
      [this] { return rpool_.Next(); }, decay_thresholds_.data(), kDecayCap);
  const ebpf::s32 idx = enetstl::FindU32(v.flows, config_.topk, flow_id);
  if (idx >= 0) {
    if (est > v.ests[idx]) {
      v.ests[idx] = est;
    }
    return;
  }
  u32 min_val = 0;
  const ebpf::s32 min_idx = enetstl::MinIndexU32(v.ests, config_.topk, &min_val);
  if (min_idx >= 0 && est > min_val) {
    v.flows[min_idx] = flow_id;
    v.ests[min_idx] = est;
  }
}

u32 HeavyKeeperEnetstl::Query(const void* key, std::size_t len) {
  void* blob = state_map_.LookupElem(0);
  if (blob == nullptr) {
    return 0;
  }
  HkLayout v = ViewBlob(blob, config_);
  u32 pos[8];
  enetstl::HashPositions(pos, config_.rows, col_mask_, key, len, config_.seed);
  const u16 fp =
      MakeFp(enetstl::HwHashCrc(key, len, config_.seed ^ kFpSeedXor));
  u32 best = 0;
  for (u32 r = 0; r < config_.rows; ++r) {
    const HkBucket& b = v.buckets[r * config_.cols + pos[r]];
    if (b.fp == fp && b.count > best) {
      best = b.count;
    }
  }
  return best;
}

std::vector<HkTopEntry> HeavyKeeperEnetstl::TopK() const {
  auto* self = const_cast<HeavyKeeperEnetstl*>(this);
  void* blob = self->state_map_.LookupElem(0);
  HkLayout v = ViewBlob(blob, config_);
  std::vector<HkTopEntry> out;
  for (u32 i = 0; i < config_.topk; ++i) {
    if (v.ests[i] > 0) {
      out.push_back({v.flows[i], v.ests[i]});
    }
  }
  return out;
}

bool HeavyKeeperEnetstl::ExportState(std::vector<u8>& out) const {
  auto* self = const_cast<HeavyKeeperEnetstl*>(this);
  void* blob = self->state_map_.LookupElem(0);
  HkLayout v = ViewBlob(blob, config_);
  return HkExportState(config_, v.buckets, v.flows, v.ests, out);
}

bool HeavyKeeperEnetstl::ImportState(const u8* data, std::size_t len) {
  void* blob = state_map_.LookupElem(0);
  HkLayout v = ViewBlob(blob, config_);
  return HkImportState(config_, v.buckets, v.flows, v.ests, data, len);
}

namespace builtin {

void RegisterHeavyKeeper(NfRegistry& registry) {
  NfEntry entry;
  entry.name = "heavykeeper";
  entry.category = "counting";
  entry.variants = {Variant::kEbpf, Variant::kKernel, Variant::kEnetstl};
  entry.factory = [](Variant v) -> std::unique_ptr<NetworkFunction> {
    HeavyKeeperConfig config;
    config.rows = 8;
    config.cols = 8192;
    config.topk = 32;
    switch (v) {
      case Variant::kEbpf:
        return std::make_unique<HeavyKeeperEbpf>(config);
      case Variant::kKernel:
        return std::make_unique<HeavyKeeperKernel>(config);
      case Variant::kEnetstl:
        return std::make_unique<HeavyKeeperEnetstl>(config);
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
