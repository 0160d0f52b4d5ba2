// Fused single-pass chain execution — the one burst executor of
// ChainExecutor.
//
// Walking a chain stage by stage treats every stage as an opaque packet
// program that re-parses the packet and resolves its own configuration on
// every call — the abstraction tax Kops removes by compiling an eBPF chain
// into one native operation.
//
// FusedChain is the repro-scale analogue of that compilation step.
// ChainExecutor folds its stage set into a flat FusedStage array (stage
// pointer, telemetry scope id, stats slot and — where the stage supports
// it — a key-level lowering of its packet path) at Load() and again at the
// commit of every stage edit. Execution is then a single stage-major pass
// per burst that propagates a per-burst verdict BITMASK through all stages
// instead of partitioning and regrouping:
//
//  * Lowered stages (FusedKeyOp: parse -> membership decision) run over
//    5-tuple keys parsed once per packet per fusion window, through the
//    variant's batched lookup (cross-packet prefetch).
//  * Non-lowered stages fall back to the stage's own ProcessBurst over the
//    gathered live contexts in arrival order, which by the repo-wide
//    batching invariant (ProcessBurst == scalar Process, bit-identical) is
//    exactly the survivor sequence the tail-call walk feeds them. Any such
//    stage may rewrite frame bytes, so cached keys are conservatively
//    invalidated.
//
// Verdicts, per-stage StageStats counters, and the sampled obs flow
// sequence equal the scalar tail-call walk (ChainExecutor::Process), which
// is the semantic oracle; the differential suite in
// tests/test_fused_chain.cc enforces this at every depth 1..8.
//
// Tail-call budget: a fused burst stands in for one complete walk of
// `depth` programs per packet. Fuse() refuses chains outside
// ebpf::FusionWithinTailCallBudget (so fusion can never execute a chain the
// verifier would have rejected at Load()), and every burst charges the walk
// depth via ebpf::BeginFusedWalk.
#ifndef ENETSTL_NF_FUSED_CHAIN_H_
#define ENETSTL_NF_FUSED_CHAIN_H_

#include <chrono>
#include <functional>
#include <memory>
#include <vector>

#include "ebpf/prog_array.h"
#include "nf/nf_interface.h"
#include "obs/telemetry.h"
#include "pktgen/pipeline.h"

namespace nf {

// Fused-executor counters, exported next to stage_stats.
struct FusionStats {
  u64 fused_bursts = 0;  // ProcessBurst calls
  u64 fused_packets = 0;
  u64 generic_bursts = 0;  // always 0; the benchmark is its only reader
  u64 demotions = 0;       // always 0; the benchmark is its only reader
  // Fold generation: bumped each time Load() or a committed stage edit
  // folds a new fused program. A rejected or faulted edit leaves it as is.
  u32 generation = 0;
};

// One constant-folded stage of a fused chain.
struct FusedStage {
  NetworkFunction* nf = nullptr;        // resolved stage pointer
  u16 scope = obs::kInvalidScope;       // telemetry scope id
  pktgen::StageStats* stats = nullptr;  // the chain's per-stage counter slot
  bool lowered = false;
  // Valid when `lowered`: the stage's batched key-level membership op
  // (FusedKeyOp contract in nf_interface.h).
  std::function<void(const ebpf::FiveTuple*, u32, bool*)> contains;
};

namespace detail {
inline u64 ChainNowNs() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now()
                                  .time_since_epoch())
                              .count());
}
}  // namespace detail

class FusedChain {
 public:
  // Builds the fused program from constant-folded stages. Returns nullptr
  // when the depth falls outside the tail-call budget — the shapes Load()
  // would have rejected must stay unreachable through fusion too.
  static std::unique_ptr<FusedChain> Fuse(std::vector<FusedStage> stages);

  FusedChain(const FusedChain&) = delete;
  FusedChain& operator=(const FusedChain&) = delete;

  // Single-pass burst execution; accepts any count (chunks internally at
  // kMaxNfBurst, the width of the verdict bitmask).
  void ExecuteBurst(ebpf::XdpContext* ctxs, u32 count,
                    ebpf::XdpAction* verdicts);

  u32 depth() const { return static_cast<u32>(stages_.size()); }

 private:
  explicit FusedChain(std::vector<FusedStage> stages);

  void BurstChunk(ebpf::XdpContext* ctxs, u32 count,
                  ebpf::XdpAction* verdicts);

  std::vector<FusedStage> stages_;

  // Persistent per-burst scratch (single-threaded, like the chain's stats):
  // hoisted out of the hot path, and keys_ stays initialized across bursts
  // so dense-mode evaluation of dead lanes never reads indeterminate bytes.
  ebpf::XdpContext work_[kMaxNfBurst];
  ebpf::FiveTuple keys_[kMaxNfBurst] = {};
  bool hits_[kMaxNfBurst];
  ebpf::FiveTuple gather_keys_[kMaxNfBurst];
  ebpf::XdpContext gather_ctxs_[kMaxNfBurst];
  ebpf::XdpAction gather_verdicts_[kMaxNfBurst];
  u32 gather_slot_[kMaxNfBurst];
};

}  // namespace nf

#endif  // ENETSTL_NF_FUSED_CHAIN_H_
