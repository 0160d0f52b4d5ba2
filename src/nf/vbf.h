// Vector of Bloom Filters (DPDK membership library style) — multi-set
// membership testing.
//
// One u32 set-mask per table position: adding key K to set s ORs (1 << s)
// into the d hashed positions; looking K up ANDs the d positions, yielding
// the vector of sets K may belong to. The d-hash computation is the
// behaviour eNetSTL fuses into a single kfunc (HashMaskOr / HashMaskAnd).
//
// Variants: eBPF (scalar hash per row), kernel (inline fused multi-hash),
// eNetSTL (one fused kfunc per operation).
#ifndef ENETSTL_NF_VBF_H_
#define ENETSTL_NF_VBF_H_

#include <vector>

#include "ebpf/maps.h"
#include "nf/nf_interface.h"

namespace nf {

struct VbfConfig {
  u32 positions = 65536;  // power of two
  u32 rows = 4;           // hash functions (1..8)
  u32 num_sets = 16;      // <= 32
  u32 seed = 0x165667b1u;
};

class VbfBase : public NetworkFunction {
 public:
  // Throws std::invalid_argument unless rows is in [1, 8] and positions is
  // a power of two.
  explicit VbfBase(const VbfConfig& config)
      : config_(Checked(config)), pos_mask_(config.positions - 1) {}

  virtual void AddToSet(const void* key, std::size_t len, u32 set_id) = 0;
  // Bit i of the result: key possibly belongs to set i.
  virtual u32 LookupSets(const void* key, std::size_t len) = 0;

  // Batched multi-set lookup over parsed 5-tuple keys: out[i] =
  // LookupSets(&keys[i], sizeof(keys[i])), bit-identical to the scalar path.
  // Default is the scalar loop (the pure-eBPF shape). The eNetSTL variant
  // makes one HashMaskAndBatch kfunc call per burst and the kernel variant
  // runs the same single pass inline. While the table sits in L2 (every VBF
  // here is 256 KiB) that beats a hash+prefetch stage followed by a
  // gather-AND stage; EXPERIMENTS.md measures where it stops doing so.
  // Feeds the fused chain path, which is where VBF's batching lives — the
  // packet-at-a-time walk has no burst override.
  virtual void LookupSetsBatch(const ebpf::FiveTuple* keys, u32 n, u32* out) {
    for (u32 i = 0; i < n; ++i) {
      out[i] = LookupSets(&keys[i], sizeof(keys[i]));
    }
  }

  ebpf::XdpAction Process(ebpf::XdpContext& ctx) override {
    ebpf::FiveTuple tuple;
    if (!ebpf::ParseFiveTuple(ctx, &tuple)) {
      return ebpf::XdpAction::kAborted;
    }
    return LookupSets(&tuple, sizeof(tuple)) != 0 ? ebpf::XdpAction::kPass
                                                  : ebpf::XdpAction::kDrop;
  }

  // Chain-fusion lowering: the packet path is exactly parse -> any-set
  // membership, so the stage lowers to a batched key op built on
  // LookupSetsBatch (see FusedKeyOp contract in nf_interface.h).
  std::optional<FusedKeyOp> LowerToKeyOp() override;

  std::string_view name() const override { return "vbf-membership"; }
  const VbfConfig& config() const { return config_; }

 protected:
  VbfConfig config_;
  u32 pos_mask_;

 private:
  static const VbfConfig& Checked(const VbfConfig& config);
};

class VbfEbpf : public VbfBase {
 public:
  explicit VbfEbpf(const VbfConfig& config);
  void AddToSet(const void* key, std::size_t len, u32 set_id) override;
  u32 LookupSets(const void* key, std::size_t len) override;
  Variant variant() const override { return Variant::kEbpf; }

 private:
  ebpf::RawArrayMap table_map_;
};

class VbfKernel : public VbfBase {
 public:
  explicit VbfKernel(const VbfConfig& config);
  void AddToSet(const void* key, std::size_t len, u32 set_id) override;
  u32 LookupSets(const void* key, std::size_t len) override;
  void LookupSetsBatch(const ebpf::FiveTuple* keys, u32 n, u32* out) override;
  Variant variant() const override { return Variant::kKernel; }

 private:
  std::vector<u32> table_;
};

class VbfEnetstl : public VbfBase {
 public:
  explicit VbfEnetstl(const VbfConfig& config);
  void AddToSet(const void* key, std::size_t len, u32 set_id) override;
  u32 LookupSets(const void* key, std::size_t len) override;
  void LookupSetsBatch(const ebpf::FiveTuple* keys, u32 n, u32* out) override;
  Variant variant() const override { return Variant::kEnetstl; }

 private:
  ebpf::RawArrayMap table_map_;
};

}  // namespace nf

#endif  // ENETSTL_NF_VBF_H_
