#include "nf/reconfig.h"

#include <utility>
#include <vector>

#include "core/fault_injector.h"
#include "ebpf/types.h"
#include "obs/telemetry.h"

namespace nf {

using detail::ChainNowNs;

std::string_view ReconfigErrorName(ReconfigError error) {
  switch (error) {
    case ReconfigError::kOk:
      return "ok";
    case ReconfigError::kUnknownNf:
      return "unknown-nf";
    case ReconfigError::kUnsupportedVariant:
      return "unsupported-variant";
    case ReconfigError::kBadStage:
      return "bad-stage";
    case ReconfigError::kBudgetExceeded:
      return "budget-exceeded";
    case ReconfigError::kVerifyFailed:
      return "verify-failed";
    case ReconfigError::kCommitFault:
      return "commit-fault";
    case ReconfigError::kStateTransferFailed:
      return "state-transfer-failed";
    case ReconfigError::kEditPending:
      return "edit-pending";
  }
  return "?";
}

namespace {

std::string JoinErrors(const ebpf::VerifyResult& result) {
  std::string message;
  for (const std::string& error : result.errors) {
    if (!message.empty()) {
      message += "; ";
    }
    message += error;
  }
  return message;
}

}  // namespace

ChainReconfig::ChainReconfig(ChainExecutor& chain) : chain_(chain) {
  reconfig_scope_ = obs::Telemetry::Global().RegisterScope(
      std::string(chain.name()) + "/reconfig");
}

void ChainReconfig::RecordControlLocked(u32 code, u64 value) {
  if constexpr (obs::kCompiledIn) {
    obs::Telemetry::Global().RecordControl(reconfig_scope_, code, value);
  }
}

void ChainReconfig::ProcessBurst(ebpf::XdpContext* ctxs, u32 count,
                                 ebpf::XdpAction* verdicts) {
  auto guard = guard_.LockBurst();
  chain_.ProcessBurst(ctxs, count, verdicts);
  if (pending_ == nullptr) {
    return;
  }
  // Dual-write warm-up: the staged replacement also sees this burst (its
  // verdicts are discarded — only its state matters). The warm-up feed is
  // the chain input, a conservative superset of what the stage itself
  // observes mid-chain.
  ebpf::XdpAction shadow_verdicts[kMaxNfBurst];
  ForEachNfChunk(count, [&](u32 start, u32 chunk) {
    pending_->replacement->ProcessBurst(ctxs + start, chunk, shadow_verdicts);
  });
  ++stats_.shadow_bursts;
  stats_.shadow_packets += count;
  if (pending_->remaining_bursts > 0) {
    --pending_->remaining_bursts;
  }
  if (pending_->remaining_bursts > 0) {
    return;
  }
  // Warm-up complete: commit at this quiescent point. A commit failure
  // (injected fault) abandons the staged swap — the chain itself is
  // untouched either way.
  std::unique_ptr<PendingSwap> pending = std::move(pending_);
  RecordControlLocked(kReconfigShadowDrainCode, stats_.shadow_bursts);
  (void)CommitSwapLocked(pending->index, std::move(pending->replacement),
                         pending->begin_ns);
}

u32 ChainReconfig::FindStage(std::string_view name) const {
  const u32 depth = chain_.depth();
  for (u32 i = 0; i < depth; ++i) {
    if (chain_.stage(i).name() == name) {
      return i;
    }
  }
  return depth;
}

ReconfigResult ChainReconfig::SwapNf(std::string_view name, Variant variant,
                                     const SwapOptions& options) {
  NfCreateResult built = NfRegistry::Global().CreateChecked(name, variant);
  if (!built.ok()) {
    ReconfigResult result;
    result.error = built.error == NfCreateError::kUnknownName
                       ? ReconfigError::kUnknownNf
                       : ReconfigError::kUnsupportedVariant;
    result.message = std::move(built.message);
    return result;
  }
  return SwapNfWith(name, std::move(built.nf), options);
}

ReconfigResult ChainReconfig::SwapNfWith(
    std::string_view name, std::unique_ptr<NetworkFunction> replacement,
    const SwapOptions& options) {
  ReconfigResult result;
  if (replacement == nullptr) {
    result.error = ReconfigError::kBadStage;
    result.message = "null replacement NF";
    return result;
  }

  auto guard = guard_.LockControl();
  const u64 begin_ns = ChainNowNs();
  if (pending_ != nullptr) {
    result.error = ReconfigError::kEditPending;
    result.message = "a staged swap is still warming up";
    return result;
  }
  const u32 index = FindStage(name);
  if (index >= chain_.depth()) {
    result.error = ReconfigError::kBadStage;
    result.message = "chain '" + std::string(chain_.name()) +
                     "' has no stage named '" + std::string(name) + "'";
    return result;
  }
  RecordControlLocked(kReconfigSwapBeginCode, index);

  if (options.transfer_state) {
    // State transfer, when the family supports it. The export buffer is the
    // allocation the "reconfig.state_transfer" fault models failing.
    std::vector<u8> blob;
    if (enetstl::FaultInjector::Global().ShouldFail(
            "reconfig.state_transfer")) {
      ++stats_.swaps_rolled_back;
      RecordControlLocked(kReconfigSwapRollbackCode, index);
      result.error = ReconfigError::kStateTransferFailed;
      result.message = "state-transfer allocation failed (injected)";
      return result;
    }
    if (chain_.stage(index).ExportState(blob)) {
      if (!replacement->ImportState(blob.data(), blob.size())) {
        ++stats_.swaps_rolled_back;
        RecordControlLocked(kReconfigSwapRollbackCode, index);
        result.error = ReconfigError::kStateTransferFailed;
        result.message = "replacement rejected the exported state blob (" +
                         std::to_string(blob.size()) + " bytes)";
        return result;
      }
      stats_.state_bytes += blob.size();
      return CommitSwapLocked(index, std::move(replacement), begin_ns);
    }
  }
  return StageOrCommitLocked(index, std::move(replacement), options, begin_ns);
}

ReconfigResult ChainReconfig::StageOrCommitLocked(
    u32 index, std::unique_ptr<NetworkFunction> replacement,
    const SwapOptions& options, u64 begin_ns) {
  if (options.warmup_bursts == 0) {
    return CommitSwapLocked(index, std::move(replacement), begin_ns);
  }
  // Stage the swap: ProcessBurst dual-writes the next warmup_bursts bursts
  // into the replacement, then commits at the boundary where they run out.
  auto pending = std::make_unique<PendingSwap>();
  pending->index = index;
  pending->replacement = std::move(replacement);
  pending->remaining_bursts = options.warmup_bursts;
  pending->begin_ns = begin_ns;
  pending_ = std::move(pending);
  return ReconfigResult{};
}

ReconfigResult ChainReconfig::CommitSwapLocked(
    u32 index, std::unique_ptr<NetworkFunction> replacement, u64 begin_ns) {
  ReconfigResult result;
  // Commit fault point fires before the executor is touched, so a rollback
  // here is trivially bit-identical (nothing was mutated).
  if (enetstl::FaultInjector::Global().ShouldFail("reconfig.swap_commit")) {
    ++stats_.swaps_rolled_back;
    RecordControlLocked(kReconfigSwapRollbackCode, index);
    result.error = ReconfigError::kCommitFault;
    result.message = "swap commit faulted (injected)";
    return result;
  }
  const ebpf::VerifyResult replaced =
      chain_.ReplaceStage(index, std::move(replacement));
  if (!replaced.ok) {
    // ReplaceStage fails before committing anything (verification or the
    // prog-array slot update — e.g. the injected helper.prog_array_update
    // fault), so the chain, its programs, and its fused program are exactly
    // as before the call.
    ++stats_.swaps_rolled_back;
    RecordControlLocked(kReconfigSwapRollbackCode, index);
    result.error = ReconfigError::kCommitFault;
    result.message = JoinErrors(replaced);
    return result;
  }
  ++stats_.swaps_committed;
  guard_.AdvanceEpoch();
  stats_.last_swap_ns = ChainNowNs() - begin_ns;
  RecordControlLocked(kReconfigSwapCommitCode, index);
  return result;
}

ReconfigResult ChainReconfig::InsertStage(
    u32 pos, std::unique_ptr<NetworkFunction> stage) {
  ReconfigResult result;
  auto guard = guard_.LockControl();
  if (pending_ != nullptr) {
    result.error = ReconfigError::kEditPending;
    result.message = "a staged swap is still warming up";
    return result;
  }
  if (stage == nullptr || pos > chain_.depth()) {
    result.error = ReconfigError::kBadStage;
    result.message = "InsertStage position " + std::to_string(pos) +
                     " out of range or null stage";
    return result;
  }
  if (chain_.depth() + 1 > ebpf::kMaxTailCallChain) {
    result.error = ReconfigError::kBudgetExceeded;
    result.message = "insert would exceed the tail-call budget";
    return result;
  }
  const ebpf::VerifyResult inserted = chain_.InsertStage(pos, std::move(stage));
  if (!inserted.ok) {
    result.error = ReconfigError::kCommitFault;
    result.message = JoinErrors(inserted);
    return result;
  }
  ++stats_.inserts;
  guard_.AdvanceEpoch();
  RecordControlLocked(kReconfigInsertCode, pos);
  return result;
}

ReconfigResult ChainReconfig::RemoveStage(u32 pos) {
  ReconfigResult result;
  auto guard = guard_.LockControl();
  if (pending_ != nullptr) {
    result.error = ReconfigError::kEditPending;
    result.message = "a staged swap is still warming up";
    return result;
  }
  if (pos >= chain_.depth() || chain_.depth() == 1) {
    result.error = ReconfigError::kBadStage;
    result.message = "RemoveStage position " + std::to_string(pos) +
                     " out of range or chain too shallow";
    return result;
  }
  const ebpf::VerifyResult removed = chain_.RemoveStage(pos);
  if (!removed.ok) {
    result.error = ReconfigError::kCommitFault;
    result.message = JoinErrors(removed);
    return result;
  }
  ++stats_.removes;
  guard_.AdvanceEpoch();
  RecordControlLocked(kReconfigRemoveCode, pos);
  return result;
}

bool ChainReconfig::swap_pending() const {
  auto guard = guard_.LockControl();
  return pending_ != nullptr;
}

ReconfigStats ChainReconfig::stats() const {
  auto guard = guard_.LockControl();
  ReconfigStats out = stats_;
  out.epoch = guard_.epoch();
  return out;
}

}  // namespace nf
