// NitroSketch (Liu et al., SIGCOMM '19) — probabilistic count-min updates.
//
// Instead of touching every row per packet, NitroSketch updates each row
// independently with probability p and adds 1/p when it does, keeping the
// estimate unbiased while slashing per-packet work. The sampling is the
// bottleneck: a per-packet, per-row bpf_get_prandom_u32 helper call costs
// eBPF dearly (the paper's 75.4% gap at low p).
//
// Variants:
//  * NitroEbpf    — blob map + per-row bpf_get_prandom_u32 helper + scalar
//                   software hash for sampled rows.
//  * NitroKernel  — native: inline xorshift sampling + inline hardware CRC.
//  * NitroEnetstl — geometric random-pool kfunc (one NextGeo per sampled
//                   row, amortized batch generation) + hw_hash_crc kfunc.
#ifndef ENETSTL_NF_NITRO_H_
#define ENETSTL_NF_NITRO_H_

#include <vector>

#include "core/random_pool.h"
#include "ebpf/maps.h"
#include "nf/nf_interface.h"

namespace nf {

struct NitroConfig {
  u32 rows = 8;             // 1..8
  u32 cols = 4096;          // power of two
  double update_prob = 0.25;  // p
  u32 seed = 0x7f4a7c15u;
};

class NitroBase : public NetworkFunction {
 public:
  // Throws std::invalid_argument unless rows is in [1, 8] and cols is a
  // power of two.
  explicit NitroBase(const NitroConfig& config)
      : config_(Checked(config)),
        col_mask_(config.cols - 1),
        inc_(static_cast<u32>(1.0 / config.update_prob + 0.5)) {}

  virtual void Update(const void* key, std::size_t len) = 0;
  // Unbiased estimate: median of the row counters (already scaled by 1/p at
  // update time).
  virtual u32 Query(const void* key, std::size_t len) = 0;

  ebpf::XdpAction Process(ebpf::XdpContext& ctx) override {
    ebpf::FiveTuple tuple;
    if (!ebpf::ParseFiveTuple(ctx, &tuple)) {
      return ebpf::XdpAction::kAborted;
    }
    Update(&tuple, sizeof(tuple));
    return ebpf::XdpAction::kDrop;
  }

  std::string_view name() const override { return "nitro-sketch"; }
  const NitroConfig& config() const { return config_; }

 protected:
  u32 MedianOfRows(const u32* vals) const;

  NitroConfig config_;
  u32 col_mask_;
  u32 inc_;

 private:
  static const NitroConfig& Checked(const NitroConfig& config);
};

class NitroEbpf : public NitroBase {
 public:
  explicit NitroEbpf(const NitroConfig& config);
  void Update(const void* key, std::size_t len) override;
  u32 Query(const void* key, std::size_t len) override;
  Variant variant() const override { return Variant::kEbpf; }

 private:
  ebpf::RawPercpuArrayMap sketch_map_;
  u32 prob_threshold_;  // p scaled to 2^32
};

class NitroKernel : public NitroBase {
 public:
  explicit NitroKernel(const NitroConfig& config);
  void Update(const void* key, std::size_t len) override;
  u32 Query(const void* key, std::size_t len) override;
  Variant variant() const override { return Variant::kKernel; }

 private:
  // The kernel baseline uses the same geometric-skipping algorithm (it is
  // simply the better algorithm); only the call boundary differs.
  std::vector<u32> counters_;
  enetstl::GeoRandomPool geo_pool_;
  u32 skip_;
};

class NitroEnetstl : public NitroBase {
 public:
  explicit NitroEnetstl(const NitroConfig& config);
  void Update(const void* key, std::size_t len) override;
  u32 Query(const void* key, std::size_t len) override;
  Variant variant() const override { return Variant::kEnetstl; }

 private:
  ebpf::RawPercpuArrayMap sketch_map_;
  enetstl::GeoRandomPool geo_pool_;
  u32 skip_;  // rows to skip before the next sampled row (carried over)
};

}  // namespace nf

#endif  // ENETSTL_NF_NITRO_H_
