#include "nf/fused_chain.h"

#include <bit>
#include <utility>

namespace nf {

namespace {

// Slot index (0-based, ascending) of the idx-th set bit of `mask`. Runs only
// on the sampled-event path, where idx is rare and mask is one machine word.
inline u32 NthSetBit(u64 mask, u32 idx) {
  for (u32 k = 0; k < idx; ++k) {
    mask &= mask - 1;
  }
  return static_cast<u32>(std::countr_zero(mask));
}

}  // namespace

std::unique_ptr<FusedChain> FusedChain::Fuse(std::vector<FusedStage> stages) {
  if (!ebpf::FusionWithinTailCallBudget(static_cast<u32>(stages.size()))) {
    return nullptr;
  }
  for (const FusedStage& stage : stages) {
    if (stage.nf == nullptr || stage.stats == nullptr ||
        (stage.lowered && !stage.contains)) {
      return nullptr;
    }
  }
  return std::unique_ptr<FusedChain>(new FusedChain(std::move(stages)));
}

FusedChain::FusedChain(std::vector<FusedStage> stages)
    : stages_(std::move(stages)) {}

void FusedChain::ExecuteBurst(ebpf::XdpContext* ctxs, u32 count,
                              ebpf::XdpAction* verdicts) {
  ForEachNfChunk(count, [&](u32 start, u32 chunk) {
    BurstChunk(ctxs + start, chunk, verdicts + start);
  });
}

void FusedChain::BurstChunk(ebpf::XdpContext* ctxs, u32 count,
                            ebpf::XdpAction* verdicts) {
  // One fused burst stands in for a complete `depth`-program walk per
  // packet; charge the per-walk tail-call budget up front.
  const u32 depth = this->depth();
  ebpf::BeginFusedWalk(depth);

  // The live mask is the whole partition/regroup machinery of a tail-call
  // walk collapsed into one word: bit i set = original slot i is still on
  // the PASS path. Retiring a packet clears its bit and writes its final
  // verdict in place; survivors never move.
  const u64 all = count == kMaxNfBurst ? ~0ull : ((1ull << count) - 1ull);
  u64 live = all;
  u64 keyed = 0;     // lanes whose cached 5-tuple is current
  u64 parse_ok = 0;  // subset of keyed: the parse succeeded
  for (u32 i = 0; i < count; ++i) {
    work_[i] = ctxs[i];
  }

  for (u32 s = 0; s < depth && live != 0; ++s) {
    FusedStage& st = stages_[s];
    pktgen::StageStats& stats = *st.stats;
    const u64 entered = live;
    const u32 in_count = static_cast<u32>(std::popcount(entered));
    stats.in += in_count;
    const u64 t0 = detail::ChainNowNs();

    if (st.lowered) {
      // Refresh the key cache for live lanes that lack a current key; a
      // packet is parsed at most once between frame-mutating stages.
      u64 need = live & ~keyed;
      while (need != 0) {
        const u32 i = static_cast<u32>(std::countr_zero(need));
        const u64 bit = need & (~need + 1);
        need &= need - 1;
        if (ebpf::ParseFiveTuple(work_[i], &keys_[i])) {
          parse_ok |= bit;
        } else {
          parse_ok &= ~bit;
        }
        keyed |= bit;
      }
      // Unparseable packets exit with kAborted, exactly as the stage's own
      // packet path maps a failed parse.
      u64 aborts = live & ~parse_ok;
      live &= parse_ok;
      while (aborts != 0) {
        const u32 i = static_cast<u32>(std::countr_zero(aborts));
        aborts &= aborts - 1;
        verdicts[i] = ebpf::XdpAction::kAborted;
        ++stats.aborted;
      }

      const u32 nlive = static_cast<u32>(std::popcount(live));
      if (nlive != 0) {
        if (nlive * 4 >= count * 3) {
          // Dense burst: evaluate every lane [0, count) branchlessly. Dead
          // lanes are free to evaluate — the op is side-effect free and
          // keys_ always holds defined values — and skipping the gather
          // keeps the common nearly-all-PASS case a straight-line loop.
          st.contains(keys_, count, hits_);
          u64 m = live;
          while (m != 0) {
            const u32 i = static_cast<u32>(std::countr_zero(m));
            m &= m - 1;
            if (hits_[i]) {
              ++stats.pass;
            } else {
              verdicts[i] = ebpf::XdpAction::kDrop;
              ++stats.drop;
              live &= ~(1ull << i);
            }
          }
        } else {
          // Sparse burst: gather live keys (ascending slot order = arrival
          // order), one batched op, scatter the decisions back.
          u32 m = 0;
          u64 mm = live;
          while (mm != 0) {
            const u32 i = static_cast<u32>(std::countr_zero(mm));
            mm &= mm - 1;
            gather_slot_[m] = i;
            gather_keys_[m] = keys_[i];
            ++m;
          }
          st.contains(gather_keys_, m, hits_);
          for (u32 j = 0; j < m; ++j) {
            const u32 i = gather_slot_[j];
            if (hits_[j]) {
              ++stats.pass;
            } else {
              verdicts[i] = ebpf::XdpAction::kDrop;
              ++stats.drop;
              live &= ~(1ull << i);
            }
          }
        }
      }
    } else {
      // Non-lowered stage: run the stage's own burst path over the live
      // contexts in arrival order — by the batching invariant this equals
      // the stage's scalar Process over the same survivors, in order. With
      // every lane live, work_ already is that burst; otherwise gather it.
      const bool dense = live == all;
      u32 m = count;
      if (!dense) {
        m = 0;
        u64 mm = live;
        while (mm != 0) {
          const u32 i = static_cast<u32>(std::countr_zero(mm));
          mm &= mm - 1;
          gather_slot_[m] = i;
          gather_ctxs_[m] = work_[i];
          ++m;
        }
      }
      st.nf->ProcessBurst(dense ? work_ : gather_ctxs_, m, gather_verdicts_);
      for (u32 j = 0; j < m; ++j) {
        const u32 i = dense ? j : gather_slot_[j];
        if (!dense) {
          // Propagate context-field mutations to the later stages, as the
          // tail-call walk hands one context from stage to stage.
          work_[i] = gather_ctxs_[j];
        }
        const ebpf::XdpAction action = gather_verdicts_[j];
        stats.Count(action);
        if (action != ebpf::XdpAction::kPass) {
          verdicts[i] = action;
          live &= ~(1ull << i);
        }
      }
      // The stage may have rewritten frame bytes; every cached key is
      // conservatively stale from here on.
      keyed = 0;
      parse_ok = 0;
    }

    const u64 stage_ns = detail::ChainNowNs() - t0;
    stats.ns += stage_ns;
    if constexpr (obs::kCompiledIn) {
      // Same scope, same entering count, and flow_of(idx) resolves the
      // idx-th entering packet in arrival order — so the sampler countdown
      // advances as it does on the scalar walk and sampled events carry the
      // same per-scope flow sequence.
      obs::Telemetry::Global().RecordBurst(
          st.scope, stage_ns, in_count, [&](u32 idx) {
            return obs::FlowOf(work_[NthSetBit(entered, idx)]);
          });
    }
  }

  // Packets that passed every stage exit with the last stage's kPass.
  while (live != 0) {
    const u32 i = static_cast<u32>(std::countr_zero(live));
    live &= live - 1;
    verdicts[i] = ebpf::XdpAction::kPass;
  }
}

}  // namespace nf
