// HeavyKeeper (Yang et al., ToN '19) — finding top-k elephant flows with
// count-with-exponential-decay buckets.
//
// d rows of w buckets, each holding a 16-bit fingerprint and a counter.
// A matching fingerprint increments the counter; a mismatch decays the
// incumbent with probability b^-count and takes over the bucket when the
// counter reaches zero. A small top-k table of (flow, estimate) pairs is
// maintained beside the sketch; its minimum entry is located with a
// min-reduction — the parallel-reduce behaviour eNetSTL accelerates.
//
// Variants:
//  * HeavyKeeperEbpf    — scalar hashes, helper-based randomness, scalar
//                         min scan of the top-k table.
//  * HeavyKeeperKernel  — inline multi-hash, inline xorshift, inline SIMD
//                         min-reduce.
//  * HeavyKeeperEnetstl — fused HashPositions kfunc (one call for all rows),
//                         random-pool kfunc, MinIndexU32 kfunc.
#ifndef ENETSTL_NF_HEAVYKEEPER_H_
#define ENETSTL_NF_HEAVYKEEPER_H_

#include <vector>

#include "core/random_pool.h"
#include "ebpf/maps.h"
#include "nf/nf_interface.h"

namespace nf {

struct HeavyKeeperConfig {
  u32 rows = 4;      // d (1..8)
  u32 cols = 4096;   // w, power of two
  u32 topk = 32;     // top-k table size (multiple of 8 for SIMD reduce)
  double decay_base = 1.08;
  u32 seed = 0x27d4eb2fu;
};

struct HkBucket {
  u16 fp = 0;
  u16 pad = 0;
  u32 count = 0;
};

struct HkTopEntry {
  u32 flow = 0;   // flow identifier (src ip in the packet workloads)
  u32 est = 0;    // estimated count
};

class HeavyKeeperBase : public NetworkFunction {
 public:
  // Throws std::invalid_argument unless rows is in [1, 8] and cols is a
  // power of two.
  explicit HeavyKeeperBase(const HeavyKeeperConfig& config);

  virtual void Update(const void* key, std::size_t len, u32 flow_id) = 0;
  virtual u32 Query(const void* key, std::size_t len) = 0;
  // Snapshot of the current top-k table (unsorted).
  virtual std::vector<HkTopEntry> TopK() const = 0;

  ebpf::XdpAction Process(ebpf::XdpContext& ctx) override {
    ebpf::FiveTuple tuple;
    if (!ebpf::ParseFiveTuple(ctx, &tuple)) {
      return ebpf::XdpAction::kAborted;
    }
    Update(&tuple, sizeof(tuple), tuple.src_ip);
    return ebpf::XdpAction::kDrop;
  }

  std::string_view name() const override { return "heavykeeper"; }
  const HeavyKeeperConfig& config() const { return config_; }

 protected:
  // Decay threshold table: threshold[c] = b^-min(c, cap) scaled to 2^32.
  u32 DecayThreshold(u32 count) const {
    return decay_thresholds_[count < kDecayCap ? count : kDecayCap - 1];
  }

  static constexpr u32 kDecayCap = 64;

  HeavyKeeperConfig config_;
  u32 col_mask_;
  std::vector<u32> decay_thresholds_;

 private:
  static const HeavyKeeperConfig& Checked(const HeavyKeeperConfig& config);
};

// All three variants implement the family-owned state-transfer blob
// (ExportState/ImportState): {u32 rows, cols, topk} geometry header, then the
// full bucket array and the top-k (flows, ests) tables. Import requires
// matching geometry. The top-K set and its estimates transfer exactly under
// any variant pairing; bucket-level Query estimates transfer exactly when
// exporter and importer share a hash layout (same-variant swap) — the
// variants hash with different families, so a cross-variant import keeps the
// heavy-hitter table authoritative and lets the buckets re-converge.
class HeavyKeeperEbpf : public HeavyKeeperBase {
 public:
  explicit HeavyKeeperEbpf(const HeavyKeeperConfig& config);
  void Update(const void* key, std::size_t len, u32 flow_id) override;
  u32 Query(const void* key, std::size_t len) override;
  std::vector<HkTopEntry> TopK() const override;
  bool ExportState(std::vector<u8>& out) const override;
  bool ImportState(const u8* data, std::size_t len) override;
  Variant variant() const override { return Variant::kEbpf; }

 private:
  ebpf::RawArrayMap state_map_;  // [HkBucket rows*cols][HkTopEntry topk]
};

class HeavyKeeperKernel : public HeavyKeeperBase {
 public:
  explicit HeavyKeeperKernel(const HeavyKeeperConfig& config);
  void Update(const void* key, std::size_t len, u32 flow_id) override;
  u32 Query(const void* key, std::size_t len) override;
  std::vector<HkTopEntry> TopK() const override;
  bool ExportState(std::vector<u8>& out) const override;
  bool ImportState(const u8* data, std::size_t len) override;
  Variant variant() const override { return Variant::kKernel; }

 private:
  std::vector<HkBucket> buckets_;
  std::vector<u32> top_flows_;
  std::vector<u32> top_ests_;
  u64 rng_state_ = 0x6a09e667f3bcc909ull;
};

class HeavyKeeperEnetstl : public HeavyKeeperBase {
 public:
  explicit HeavyKeeperEnetstl(const HeavyKeeperConfig& config);
  void Update(const void* key, std::size_t len, u32 flow_id) override;
  u32 Query(const void* key, std::size_t len) override;
  std::vector<HkTopEntry> TopK() const override;
  bool ExportState(std::vector<u8>& out) const override;
  bool ImportState(const u8* data, std::size_t len) override;
  Variant variant() const override { return Variant::kEnetstl; }

 private:
  ebpf::RawArrayMap state_map_;
  enetstl::RandomPool rpool_;
};

}  // namespace nf

#endif  // ENETSTL_NF_HEAVYKEEPER_H_
