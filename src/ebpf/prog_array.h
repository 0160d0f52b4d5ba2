// BPF_MAP_TYPE_PROG_ARRAY and the bpf_tail_call helper.
//
// A prog array holds program references (file descriptors in the kernel; raw
// pointers here — the map does not own the programs). bpf_tail_call(ctx, map,
// index) replaces the running program with slot `index`: on success control
// never returns to the caller, on failure (empty/out-of-range slot, or the
// MAX_TAIL_CALL_CNT budget exhausted) the call is a no-op and the caller
// falls through. The kernel bounds one chain walk to kMaxTailCallChain (33)
// program executions; the model counts executions with a thread-local budget
// reset at the chain entry point, so depth enforcement is per packet exactly
// as the per-walk tail_call_cnt register is.
#ifndef ENETSTL_EBPF_PROG_ARRAY_H_
#define ENETSTL_EBPF_PROG_ARRAY_H_

#include <optional>
#include <vector>

#include "ebpf/helper.h"
#include "ebpf/program.h"
#include "ebpf/verifier.h"

namespace ebpf {

// Non-owning array of loaded programs. Mirrors the map idiom of maps.h: every
// access pays the helper-call boundary and is bounds-checked.
class ProgArrayMap {
 public:
  explicit ProgArrayMap(u32 max_entries) : slots_(max_entries, nullptr) {}

  ENETSTL_NOINLINE XdpProgram* LookupElem(u32 index) {
    ++GlobalHelperStats().map_lookup_calls;
    CompilerBarrier();
    if (index >= slots_.size()) {
      return nullptr;
    }
    return slots_[index];
  }

  // The kernel only accepts fds of successfully loaded programs; unloaded
  // (verifier-rejected) programs are not insertable. The fault point models
  // the allocation the kernel performs for the fd reference on update
  // (-ENOMEM): the slot is left untouched, so a failed live update never
  // half-installs a program — callers (chain load/replace) roll back.
  ENETSTL_NOINLINE int UpdateElem(u32 index, XdpProgram* prog) {
    ++GlobalHelperStats().map_update_calls;
    CompilerBarrier();
    if (index >= slots_.size() || prog == nullptr || !prog->loaded()) {
      return kErrInval;
    }
    if (HelperFaultTriggered("helper.prog_array_update")) {
      return kErrNoSpc;
    }
    slots_[index] = prog;
    return kOk;
  }

  ENETSTL_NOINLINE int DeleteElem(u32 index) {
    ++GlobalHelperStats().map_delete_calls;
    CompilerBarrier();
    if (index >= slots_.size() || slots_[index] == nullptr) {
      return kErrNoEnt;
    }
    slots_[index] = nullptr;
    return kOk;
  }

  u32 max_entries() const { return static_cast<u32>(slots_.size()); }

 private:
  std::vector<XdpProgram*> slots_;  // non-owning, like prog fds
};

namespace detail {
// Programs executed so far in the current chain walk (entry included); the
// model of the per-walk tail_call_cnt budget.
inline thread_local u32 chain_programs_run = 1;
}  // namespace detail

// bpf_tail_call. Returns nullopt when the call fails — empty or out-of-range
// slot, or the 33-program budget is spent — and the caller must fall through
// like a real program whose `tail_call` instruction became a no-op. On
// success the callee (and anything it tail-calls) runs to completion and its
// verdict is returned; the caller must return that verdict unchanged, since
// the real helper never gives control back.
ENETSTL_NOINLINE inline std::optional<XdpAction> TailCall(XdpContext& ctx,
                                                          ProgArrayMap& map,
                                                          u32 index) {
  ++GlobalHelperStats().tail_call_calls;
  CompilerBarrier();
  XdpProgram* callee = map.LookupElem(index);
  if (callee == nullptr || detail::chain_programs_run >= kMaxTailCallChain) {
    return std::nullopt;
  }
  ++detail::chain_programs_run;
  return callee->Run(ctx);
}

// Runs `entry` as the root of a fresh chain walk — the XDP hook dispatching
// one packet — resetting the per-walk program budget (entry counts as the
// first of the 33 allowed executions).
inline XdpAction RunChainEntry(const XdpProgram& entry, XdpContext& ctx) {
  detail::chain_programs_run = 1;
  return entry.Run(ctx);
}

// Fusion eligibility against the tail-call budget: a fused chain stands in
// for one complete walk of `depth` programs, so it may only exist where the
// tail-call walk itself fits the MAX_TAIL_CALL_CNT model. Chains past the
// budget already fail Load(); this keeps the fused path from ever being
// built for a shape the verifier would reject.
inline bool FusionWithinTailCallBudget(u32 depth) {
  return depth >= 1 && depth <= kMaxTailCallChain;
}

// Opens a fused walk: one fused burst stands in for `depth` per-packet
// program executions, so the walk charges its full depth against the
// per-walk budget up front. Callers must have passed
// FusionWithinTailCallBudget(depth).
inline void BeginFusedWalk(u32 depth) { detail::chain_programs_run = depth; }

}  // namespace ebpf

#endif  // ENETSTL_EBPF_PROG_ARRAY_H_
