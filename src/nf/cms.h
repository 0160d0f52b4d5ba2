// Count-min sketch (Cormode & Muthukrishnan) — the paper's Case Study 2.
//
// The sketch is a rows x cols matrix of u32 counters; an update increments
// one counter per row at column h_r(key) & (cols - 1); a query returns the
// minimum of the addressed counters.
//
// Variants:
//  * CmsEbpf    — sketch in a percpu BPF array map (one lookup per packet to
//                 obtain the blob pointer, as real eBPF sketches do), then
//                 `rows` scalar xxHash32 computations and increments. This is
//                 the scalar-hash bottleneck the paper measures at up to
//                 49.2% degradation.
//  * CmsKernel  — native: fused SIMD multi-hash inlined directly (no call
//                 boundary at all).
//  * CmsEnetstl — eBPF program shape: one map lookup plus ONE fused kfunc
//                 call (HashCnt / HashCntMin). For rows <= 2 it uses the
//                 hardware-CRC single-hash path instead, as §6.2 describes.
#ifndef ENETSTL_NF_CMS_H_
#define ENETSTL_NF_CMS_H_

#include <vector>

#include "ebpf/maps.h"
#include "nf/nf_interface.h"

namespace nf {

struct CmsConfig {
  u32 rows = 4;    // number of hash functions d (1..8)
  u32 cols = 4096; // counters per row; power of two
  u32 seed = 0x9e3779b9u;
};

// Shared query/update vocabulary so tests can treat variants generically.
class CmsBase : public NetworkFunction {
 public:
  // Throws std::invalid_argument unless rows is in [1, 8] and cols is a
  // power of two.
  explicit CmsBase(const CmsConfig& config)
      : config_(Checked(config)), col_mask_(config.cols - 1) {}

  virtual void Update(const void* key, std::size_t len, u32 inc) = 0;
  virtual u32 Query(const void* key, std::size_t len) = 0;
  // Zeroes every counter (control-plane operation, e.g. epoch rollover).
  virtual void Reset() = 0;

  // Batched update: n fixed-size keys laid out `stride` bytes apart, each
  // incremented by `inc` — equivalent to n scalar Update() calls in order.
  // Default is the scalar loop; kernel and eNetSTL variants override it with
  // a two-stage hash+prefetch pipeline over the addressed counters.
  virtual void UpdateBatch(const void* keys, u32 stride, std::size_t len,
                           u32 n, u32 inc) {
    const u8* p = static_cast<const u8*>(keys);
    for (u32 i = 0; i < n; ++i) {
      Update(p + static_cast<std::size_t>(i) * stride, len, inc);
    }
  }

  // Packet path: update the sketch with the packet's 5-tuple.
  ebpf::XdpAction Process(ebpf::XdpContext& ctx) override {
    ebpf::FiveTuple tuple;
    if (!ebpf::ParseFiveTuple(ctx, &tuple)) {
      return ebpf::XdpAction::kAborted;
    }
    Update(&tuple, sizeof(tuple), 1);
    return ebpf::XdpAction::kDrop;
  }

  // Burst packet path: parse every tuple, one batched sketch update.
  void ProcessBurst(ebpf::XdpContext* ctxs, u32 count,
                    ebpf::XdpAction* verdicts) override;

  std::string_view name() const override { return "count-min-sketch"; }
  const CmsConfig& config() const { return config_; }

 protected:
  CmsConfig config_;
  u32 col_mask_;

 private:
  static const CmsConfig& Checked(const CmsConfig& config);
};

class CmsEbpf : public CmsBase {
 public:
  explicit CmsEbpf(const CmsConfig& config);
  void Update(const void* key, std::size_t len, u32 inc) override;
  u32 Query(const void* key, std::size_t len) override;
  void Reset() override;
  Variant variant() const override { return Variant::kEbpf; }

 private:
  ebpf::RawPercpuArrayMap sketch_map_;
};

class CmsKernel : public CmsBase {
 public:
  explicit CmsKernel(const CmsConfig& config);
  void Update(const void* key, std::size_t len, u32 inc) override;
  u32 Query(const void* key, std::size_t len) override;
  void Reset() override;
  void UpdateBatch(const void* keys, u32 stride, std::size_t len, u32 n,
                   u32 inc) override;
  Variant variant() const override { return Variant::kKernel; }

 private:
  std::vector<u32> counters_;
};

class CmsEnetstl : public CmsBase {
 public:
  explicit CmsEnetstl(const CmsConfig& config);
  void Update(const void* key, std::size_t len, u32 inc) override;
  u32 Query(const void* key, std::size_t len) override;
  void Reset() override;
  // One batched-hash kfunc call per burst (hash_prefetch_batch for rows <= 2,
  // multi_hash_prefetch_batch otherwise), then the counter increments.
  void UpdateBatch(const void* keys, u32 stride, std::size_t len, u32 n,
                   u32 inc) override;
  Variant variant() const override { return Variant::kEnetstl; }

 private:
  ebpf::RawPercpuArrayMap sketch_map_;
};

}  // namespace nf

#endif  // ENETSTL_NF_CMS_H_
