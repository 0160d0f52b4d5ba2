// Miniature PolyCube-style service chain (Figure 7 integration case):
// an ACL stage (deny-list membership over the 5-tuple), a DDoS-mitigation
// stage (per-source rate estimation, as PolyCube's ddosmitigator service),
// and an IP routing stage (dst-ip -> port).
//
// The three services are real chain stages: each one is its own
// NetworkFunction wrapped in an XDP program, and PcnBridge composes them
// through a ChainExecutor (prog-array + bpf_tail_call walk), the way
// PolyCube links its services into one datapath. The facade stays a single
// NetworkFunction so existing apps/benches are unchanged — and it gains the
// chain's batched burst path for free.
//
// The component swap mirrors the paper's PolyCube integration: the
// map-based cores of the ACL and the rate estimator are replaced by eNetSTL
// implementations — a fused-hash bloom deny-list (hash_set_bits /
// hash_test_bits kfuncs) and a fused-hash count-min sketch. The routing
// stage keeps its BPF hash table in both cores (it is not one of the
// swapped components).
#ifndef ENETSTL_APPS_PCN_BRIDGE_H_
#define ENETSTL_APPS_PCN_BRIDGE_H_

#include <memory>

#include "apps/katran_lb.h"  // CoreKind
#include "ebpf/maps.h"
#include "nf/chain.h"
#include "nf/cms.h"
#include "nf/nf_interface.h"

namespace apps {

struct PcnBridgeConfig {
  u32 acl_capacity = 4096;    // deny-list entries (origin hash map)
  u32 acl_bits = 1u << 16;    // eNetSTL bloom bits (power of two)
  u32 acl_hashes = 4;
  u32 rate_rows = 4;          // DDoS estimator sketch shape
  u32 rate_cols = 8192;
  u32 rate_threshold = 0xffffffffu;  // per-source packet budget (off by default)
  u32 route_capacity = 8192;
  u32 seed = 0x811c9dc5u;
};

// Stage 1: ACL deny list over the 5-tuple. Unparseable packets abort here
// (the chain's entry program owns packet validation, as PolyCube's first
// service does). Origin = exact-match BPF hash map; eNetSTL = fused-hash
// bloom filter.
class PcnAclStage : public nf::NetworkFunction {
 public:
  PcnAclStage(CoreKind core, const PcnBridgeConfig& config);

  void BlockFlow(const ebpf::FiveTuple& tuple);

  ebpf::XdpAction Process(ebpf::XdpContext& ctx) override;

  std::string_view name() const override { return "pcn-acl"; }
  nf::Variant variant() const override {
    return core_ == CoreKind::kOrigin ? nf::Variant::kEbpf
                                      : nf::Variant::kEnetstl;
  }

 private:
  CoreKind core_;
  PcnBridgeConfig config_;
  std::unique_ptr<ebpf::HashMap<ebpf::FiveTuple, u32>> acl_map_;
  std::unique_ptr<ebpf::RawArrayMap> acl_bloom_map_;
};

// Stage 2: DDoS mitigation — per-source packet-rate estimate against a
// budget. Count-min sketch, eBPF core vs eNetSTL core.
class PcnRateStage : public nf::NetworkFunction {
 public:
  PcnRateStage(CoreKind core, const PcnBridgeConfig& config);

  ebpf::XdpAction Process(ebpf::XdpContext& ctx) override;

  std::string_view name() const override { return "pcn-rate"; }
  nf::Variant variant() const override {
    return core_ == CoreKind::kOrigin ? nf::Variant::kEbpf
                                      : nf::Variant::kEnetstl;
  }

 private:
  CoreKind core_;
  PcnBridgeConfig config_;
  std::unique_ptr<nf::CmsBase> rate_sketch_;
};

// Stage 3: route lookup on destination IP; the same BPF hash table in both
// cores (not one of the swapped components).
class PcnRouteStage : public nf::NetworkFunction {
 public:
  explicit PcnRouteStage(const PcnBridgeConfig& config);

  bool AddRoute(u32 dst_ip, u32 port);

  ebpf::XdpAction Process(ebpf::XdpContext& ctx) override;

  std::string_view name() const override { return "pcn-route"; }
  nf::Variant variant() const override { return nf::Variant::kEbpf; }

 private:
  ebpf::HashMap<u32, u32> route_map_;
};

// Facade: the three stages composed through a tail-call chain.
class PcnBridge : public nf::NetworkFunction {
 public:
  PcnBridge(CoreKind core, const PcnBridgeConfig& config);

  // Control plane (forwarded to the owning stages).
  void BlockFlow(const ebpf::FiveTuple& tuple);  // add to ACL deny list
  bool AddRoute(u32 dst_ip, u32 port);

  // Datapath: one tail-call walk — ACL -> rate -> route.
  ebpf::XdpAction Process(ebpf::XdpContext& ctx) override;

  // Burst path: the chain's fused program (one stage-major pass over the
  // burst), verdict-identical to per-packet Process.
  void ProcessBurst(ebpf::XdpContext* ctxs, u32 count,
                    ebpf::XdpAction* verdicts) override;

  std::string_view name() const override { return "pcn-chain"; }
  nf::Variant variant() const override {
    return core_ == CoreKind::kOrigin ? nf::Variant::kEbpf
                                      : nf::Variant::kEnetstl;
  }

  // Counters are the chain's per-stage verdict histogram.
  u64 blocked() const { return chain_.stage_stats()[0].drop; }
  u64 rate_limited() const { return chain_.stage_stats()[1].drop; }
  u64 routed() const { return chain_.stage_stats()[2].tx; }
  u64 unrouted() const { return chain_.stage_stats()[2].pass; }

  const nf::ChainExecutor& chain() const { return chain_; }

 private:
  CoreKind core_;
  nf::ChainExecutor chain_;
  PcnAclStage* acl_ = nullptr;      // owned by chain_
  PcnRouteStage* route_ = nullptr;  // owned by chain_
  // Facade-level telemetry scope "app/pcn-chain", covering the whole walk;
  // the chain registers its own per-stage scopes at Load().
  ebpf::u16 obs_scope_ = 0xffff;
};

}  // namespace apps

#endif  // ENETSTL_APPS_PCN_BRIDGE_H_
