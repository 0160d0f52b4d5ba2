// Live-reconfiguration control plane over a running service chain.
//
// ChainReconfig wraps a loaded ChainExecutor and serializes its datapath
// (ProcessBurst) against control operations — NF hot swap, stage
// insertion/removal — with an epoch-guard mutex, so every control operation
// executes at a burst boundary (the chain's quiescent point: no packet is
// mid-walk, no fused program is mid-burst). Combined with the executor's
// build-aside-verify-then-commit edits and NF-pointer-bound stage programs
// (nf/chain.h), this yields the zero-loss guarantees DESIGN.md §10 states:
//
//  * no packet is dropped or re-run by a reconfiguration — a burst runs to
//    completion on the structure it started on, and the next burst runs on
//    the committed structure;
//  * no packet observes a half-edited chain — edits commit a complete
//    program set through the prog array at the quiescent point;
//  * a failed operation (verification, typed construction error, injected
//    commit or state-transfer fault) rolls back with the chain bit-identical
//    to its pre-call state — including its fused program and generation;
//  * a committed edit re-folds the fused program inside the guard, so the
//    next burst runs a program folded from the new stage set.
//
// Hot swap replaces one stage with a replacement NF built through the
// registry (SwapNf) or supplied directly (SwapNfWith). The replacement is
// warmed before commit:
//  * state transfer — if the family supports ExportState/ImportState, the
//    old instance's state blob is imported into the replacement under the
//    "reconfig.state_transfer" fault point (injected allocation failure
//    aborts the swap, chain untouched);
//  * dual-write shadowing — otherwise the swap is staged and the next
//    `warmup_bursts` input bursts are also fed to the replacement (verdicts
//    discarded, state warms against the offered load; a conservative
//    superset of what the stage itself would see), then the swap commits at
//    the burst boundary where the warm-up completes.
// The commit itself is the executor's prog-array slot update, guarded by the
// "reconfig.swap_commit" fault point; a commit fault surfaces as a typed
// rollback, not an abort.
#ifndef ENETSTL_NF_RECONFIG_H_
#define ENETSTL_NF_RECONFIG_H_

#include <memory>
#include <string>
#include <string_view>

#include "core/epoch_guard.h"
#include "nf/chain.h"
#include "nf/nf_registry.h"

namespace nf {

// Typed reconfiguration failure taxonomy. Every failure is an expected
// control-plane outcome with the chain left bit-identical; none abort.
enum class ReconfigError {
  kOk = 0,
  kUnknownNf,            // SwapNf name not in the registry
  kUnsupportedVariant,   // registry entry lacks the requested variant
  kBadStage,             // no stage with that name / position out of range
  kBudgetExceeded,       // edit would break the tail-call budget (<= 33)
  kVerifyFailed,         // replacement program failed verification
  kCommitFault,          // prog-array/commit rejected (injected -ENOMEM)
  kStateTransferFailed,  // export/import failed or faulted
  kEditPending,          // a staged swap is still warming up
};

std::string_view ReconfigErrorName(ReconfigError error);

struct ReconfigResult {
  ReconfigError error = ReconfigError::kOk;
  std::string message;  // empty on success
  bool ok() const { return error == ReconfigError::kOk; }
};

struct SwapOptions {
  // Dual-write warm-up length (bursts) when the family does not support
  // state transfer; 0 commits at the next burst boundary unwarmed.
  u32 warmup_bursts = 8;
  // Attempt ExportState/ImportState first; disable to force shadowing.
  bool transfer_state = true;
};

struct ReconfigStats {
  u64 swaps_committed = 0;
  u64 swaps_rolled_back = 0;  // typed failures after a swap was requested
  u64 inserts = 0;
  u64 removes = 0;
  u64 state_bytes = 0;      // blob bytes moved by state transfer
  u64 shadow_bursts = 0;    // dual-write warm-up bursts executed
  u64 shadow_packets = 0;
  u64 epoch = 0;            // committed control operations
  u64 last_swap_ns = 0;     // request-to-commit latency of the last swap
};

// kControl obs-event codes emitted on the "<chain>/reconfig" scope. Codes 1
// and 2 stay unused, so event logs recorded with them keep one meaning.
inline constexpr u32 kReconfigSwapBeginCode = 3;
inline constexpr u32 kReconfigSwapCommitCode = 4;
inline constexpr u32 kReconfigSwapRollbackCode = 5;
inline constexpr u32 kReconfigInsertCode = 6;
inline constexpr u32 kReconfigRemoveCode = 7;
inline constexpr u32 kReconfigShadowDrainCode = 8;

// Counting pass-through stage: forwards every packet unchanged. The
// verdict-transparent edit payload — inserting or removing one cannot change
// any chain verdict, which is exactly what the chaos harness asserts — and a
// packet tap (its counter observes the traffic crossing its position).
class PassthroughTap : public NetworkFunction {
 public:
  ebpf::XdpAction Process(ebpf::XdpContext& ctx) override {
    (void)ctx;
    ++packets_;
    return ebpf::XdpAction::kPass;
  }
  std::string_view name() const override { return "tap"; }
  Variant variant() const override { return Variant::kKernel; }
  u64 packets() const { return packets_; }

 private:
  u64 packets_ = 0;
};

class ChainReconfig {
 public:
  // The chain must already be Load()ed and must outlive the plane.
  explicit ChainReconfig(ChainExecutor& chain);

  ChainReconfig(const ChainReconfig&) = delete;
  ChainReconfig& operator=(const ChainReconfig&) = delete;

  // Datapath entry point. Holds the epoch guard for the whole burst, drives
  // any staged swap's dual-write warm-up after the chain runs, and commits
  // the swap at the boundary where its warm-up completes. Concurrent control
  // calls serialize against this — they run between bursts, never during.
  void ProcessBurst(ebpf::XdpContext* ctxs, u32 count,
                    ebpf::XdpAction* verdicts);

  // Hot-swaps the (unique) stage whose name() equals `name` with a fresh
  // registry-built instance of the requested variant. Construction failures
  // come back with the registry's typed taxonomy and the bench --nf=
  // wording.
  ReconfigResult SwapNf(std::string_view name, Variant variant,
                        const SwapOptions& options = SwapOptions{});
  // Same, with a caller-supplied replacement (e.g. a KatranLb built for a
  // new backend set — apps::SwapLbBackends).
  ReconfigResult SwapNfWith(std::string_view name,
                            std::unique_ptr<NetworkFunction> replacement,
                            const SwapOptions& options = SwapOptions{});

  // Structural chain edits at the next quiescent point. Position and
  // tail-call budget are validated before anything is built.
  ReconfigResult InsertStage(u32 pos, std::unique_ptr<NetworkFunction> stage);
  ReconfigResult RemoveStage(u32 pos);

  // True while a staged swap is still shadow-warming (further swaps return
  // kEditPending until it commits).
  bool swap_pending() const;

  ReconfigStats stats() const;
  ChainExecutor& chain() { return chain_; }

 private:
  struct PendingSwap {
    u32 index = 0;
    std::unique_ptr<NetworkFunction> replacement;
    u32 remaining_bursts = 0;
    u64 begin_ns = 0;
  };

  // Finds the stage index by NF name; depth() if absent.
  u32 FindStage(std::string_view name) const;
  // Stages or commits `replacement` into stage `index`; guard held.
  ReconfigResult StageOrCommitLocked(u32 index,
                                     std::unique_ptr<NetworkFunction> repl,
                                     const SwapOptions& options, u64 begin_ns);
  // Commits a built-and-warmed replacement; guard held.
  ReconfigResult CommitSwapLocked(u32 index,
                                  std::unique_ptr<NetworkFunction> repl,
                                  u64 begin_ns);
  void RecordControlLocked(u32 code, u64 value);

  ChainExecutor& chain_;
  // Quiescence guard (core/epoch_guard.h): held across every datapath burst
  // and every control operation, so control mutations only ever interleave
  // at burst boundaries (the quiescent points). Its epoch counts committed
  // control operations and surfaces as ReconfigStats::epoch.
  mutable enetstl::EpochGuard guard_;
  ReconfigStats stats_;
  std::unique_ptr<PendingSwap> pending_;
  // Control scope "<chain>/reconfig" for kControl events.
  u16 reconfig_scope_;
};

}  // namespace nf

#endif  // ENETSTL_NF_RECONFIG_H_
