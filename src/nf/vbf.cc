#include "nf/vbf.h"

#include "nf/nf_registry.h"

#include <bit>
#include <stdexcept>
#include <string>

#include "core/hash.h"
#include "core/multihash_inl.h"
#include "core/post_hash.h"

namespace nf {

const VbfConfig& VbfBase::Checked(const VbfConfig& config) {
  if (config.rows < 1 || config.rows > 8 ||
      !std::has_single_bit(config.positions)) {
    throw std::invalid_argument(
        "VbfConfig: rows must be in [1, 8] and positions a power of two "
        "(rows " + std::to_string(config.rows) + ", positions " +
        std::to_string(config.positions) + ")");
  }
  return config;
}

std::optional<FusedKeyOp> VbfBase::LowerToKeyOp() {
  FusedKeyOp op;
  op.contains = [this](const ebpf::FiveTuple* keys, u32 n, bool* out) {
    u32 sets[kMaxNfBurst];
    ForEachNfChunk(n, [&](u32 start, u32 chunk) {
      LookupSetsBatch(keys + start, chunk, sets);
      for (u32 i = 0; i < chunk; ++i) {
        out[start + i] = sets[i] != 0;
      }
    });
  };
  return op;
}

// ---------------------------------------------------------------------------
// VbfEbpf: scalar hash per row.
// ---------------------------------------------------------------------------

VbfEbpf::VbfEbpf(const VbfConfig& config)
    : VbfBase(config), table_map_(1, config.positions * sizeof(u32)) {}

void VbfEbpf::AddToSet(const void* key, std::size_t len, u32 set_id) {
  auto* table = static_cast<u32*>(table_map_.LookupElem(0));
  if (table == nullptr || set_id >= config_.num_sets) {
    return;
  }
  for (u32 r = 0; r < config_.rows; ++r) {
    const u32 h = enetstl::XxHash32Bpf(key, len, enetstl::LaneSeed(config_.seed, r));
    table[h & pos_mask_] |= 1u << set_id;
  }
}

u32 VbfEbpf::LookupSets(const void* key, std::size_t len) {
  auto* table = static_cast<u32*>(table_map_.LookupElem(0));
  if (table == nullptr) {
    return 0;
  }
  u32 result = 0xffffffffu;
  for (u32 r = 0; r < config_.rows; ++r) {
    const u32 h = enetstl::XxHash32Bpf(key, len, enetstl::LaneSeed(config_.seed, r));
    result &= table[h & pos_mask_];
  }
  return result;
}

// ---------------------------------------------------------------------------
// VbfKernel: inline fused multi-hash.
// ---------------------------------------------------------------------------

VbfKernel::VbfKernel(const VbfConfig& config)
    : VbfBase(config), table_(config.positions, 0) {}

void VbfKernel::AddToSet(const void* key, std::size_t len, u32 set_id) {
  if (set_id >= config_.num_sets) {
    return;
  }
  alignas(32) u32 h[8];
  enetstl::internal::MultiHashImpl(key, len, config_.seed, config_.rows, h);
  for (u32 r = 0; r < config_.rows; ++r) {
    table_[h[r] & pos_mask_] |= 1u << set_id;
  }
}

u32 VbfKernel::LookupSets(const void* key, std::size_t len) {
  alignas(32) u32 h[8];
  enetstl::internal::MultiHashImpl(key, len, config_.seed, config_.rows, h);
  u32 result = 0xffffffffu;
  for (u32 r = 0; r < config_.rows; ++r) {
    result &= table_[h[r] & pos_mask_];
  }
  return result;
}

void VbfKernel::LookupSetsBatch(const ebpf::FiveTuple* keys, u32 n, u32* out) {
  // The qualified call inlines the scalar lookup: one pass, each key's lanes
  // ANDed while still hot, no position array shared across keys (the
  // HashMaskAndBatch shape without the call boundary).
  for (u32 i = 0; i < n; ++i) {
    out[i] = VbfKernel::LookupSets(&keys[i], sizeof(keys[i]));
  }
}

// ---------------------------------------------------------------------------
// VbfEnetstl: one fused kfunc per operation.
// ---------------------------------------------------------------------------

VbfEnetstl::VbfEnetstl(const VbfConfig& config)
    : VbfBase(config), table_map_(1, config.positions * sizeof(u32)) {}

void VbfEnetstl::AddToSet(const void* key, std::size_t len, u32 set_id) {
  auto* table = static_cast<u32*>(table_map_.LookupElem(0));
  if (table == nullptr || set_id >= config_.num_sets) {
    return;
  }
  enetstl::HashMaskOr(table, config_.rows, pos_mask_, key, len, config_.seed,
                      1u << set_id);
}

u32 VbfEnetstl::LookupSets(const void* key, std::size_t len) {
  auto* table = static_cast<u32*>(table_map_.LookupElem(0));
  if (table == nullptr) {
    return 0;
  }
  return enetstl::HashMaskAnd(table, config_.rows, pos_mask_, key, len,
                              config_.seed);
}

void VbfEnetstl::LookupSetsBatch(const ebpf::FiveTuple* keys, u32 n,
                                 u32* out) {
  auto* table = static_cast<u32*>(table_map_.LookupElem(0));
  if (table == nullptr) {
    for (u32 i = 0; i < n; ++i) {
      out[i] = 0;
    }
    return;
  }
  enetstl::HashMaskAndBatch(table, config_.rows, pos_mask_, keys,
                            sizeof(ebpf::FiveTuple), sizeof(ebpf::FiveTuple),
                            n, config_.seed, out);
}

namespace builtin {

void RegisterVbf(NfRegistry& registry) {
  NfEntry entry;
  entry.name = "vbf-membership";
  entry.category = "membership test";
  entry.variants = {Variant::kEbpf, Variant::kKernel, Variant::kEnetstl};
  entry.factory = [](Variant v) -> std::unique_ptr<NetworkFunction> {
    VbfConfig config;
    config.rows = 8;
    config.positions = 1u << 16;
    switch (v) {
      case Variant::kEbpf:
        return std::make_unique<VbfEbpf>(config);
      case Variant::kKernel:
        return std::make_unique<VbfKernel>(config);
      case Variant::kEnetstl:
        return std::make_unique<VbfEnetstl>(config);
    }
    return nullptr;
  };
  entry.prime = [](const std::vector<NetworkFunction*>& nfs,
                   const BenchEnv& env) {
    for (u32 i = 0; i < 2048; ++i) {
      for (NetworkFunction* nf : nfs) {
        static_cast<VbfBase*>(nf)->AddToSet(&env.flows[i],
                                            sizeof(env.flows[i]), i % 16);
      }
    }
    return env.uniform;
  };
  registry.Register(std::move(entry));
}

}  // namespace builtin

}  // namespace nf
