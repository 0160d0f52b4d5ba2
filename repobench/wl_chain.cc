// chain4 and chain_swap: the chain runtime and its fused executor over
// eNetSTL membership stages.
//
//  chain4      cuckoo-filter -> vbf-membership -> cuckoo-filter ->
//              vbf-membership, fusion armed and promoted. The trace is
//              uniform over flows primed into every stage, so every
//              packet passes all four stages. No state writes.
//  chain_swap  cuckoo-filter -> vbf-membership -> cuckoo-filter ->
//              heavykeeper driven through ChainReconfig::ProcessBurst; every
//              kSwapPeriod bursts an identically primed twin replaces the
//              first cuckoo-filter through twin-inline SwapNfWith. HeavyKeeper
//              is not lowered, so the fused executor falls back to its
//              gathered ProcessBurst, and every swap pays for demotion and
//              re-promotion. HeavyKeeper sits last because its verdict is
//              XDP_DROP for every packet it counts: earlier in the chain it
//              would end every walk and leave the later stages idle.
#include <memory>
#include <string>
#include <vector>

#include "nf/chain.h"
#include "nf/nf_registry.h"
#include "nf/reconfig.h"
#include "pktgen/flowgen.h"
#include "workloads.h"

namespace rb {
namespace {

constexpr u32 kEnvFlows = 4096;
// The VBF stage primes flows [0, 2048) and the cuckoo filter [0, 3500), so
// the first 2048 flows are resident in every stage. The trace draws from the
// first kTraceFlows of them: the lines it touches (two 8-row VBFs, two
// cuckoo filters, 512 KiB of frames) stay within a core's private L2, so
// these workloads measure the chain runtime and the kfuncs rather than the
// state of a shared last-level cache. nat_churn covers the out-of-cache case.
constexpr u32 kTraceFlows = 512;
constexpr u32 kTracePackets = 8192;
constexpr u32 kRepBursts = 4096;
constexpr u32 kSwapPeriod = 256;   // chain_swap: bursts between swaps
constexpr u32 kProbeSwaps = 256;   // chain4: swaps after the timed window
constexpr u32 kProbeBursts = 48;   // chain4: bursts after each probe swap
constexpr u32 kGateBursts = 4096;  // chain_swap: bursts checked (16 swaps)
constexpr const char* kSwapStage = "cuckoo-filter";

enum class Kind { kChain4, kChainSwap };

std::vector<std::string> StagesOf(Kind kind) {
  if (kind == Kind::kChain4) {
    return {"cuckoo-filter", "vbf-membership", "cuckoo-filter",
            "vbf-membership"};
  }
  return {"cuckoo-filter", "vbf-membership", "cuckoo-filter", "heavykeeper"};
}

struct ChainRig : Rig {
  nf::BenchEnv env;
  pktgen::Trace trace;
  std::vector<ebpf::XdpContext> ctxs;
  std::unique_ptr<nf::ChainExecutor> chain;
  std::unique_ptr<nf::ChainReconfig> plane;                 // chain_swap
  std::vector<std::unique_ptr<nf::NetworkFunction>> twins;  // chain_swap
  u64 bursts_run = 0;  // datapath bursts so far; drives the swap schedule
};

// Bit-identical primed twin of the swapped stage: MakeVariantSetup reseeds
// the prandom helper, so a fresh setup of the entry equals the loaded stage.
std::unique_ptr<nf::NetworkFunction> MakeTwin(const nf::BenchEnv& env) {
  const nf::NfEntry* entry = nf::NfRegistry::Global().Lookup(kSwapStage);
  return entry == nullptr
             ? nullptr
             : nf::MakeVariantSetup(*entry, nf::Variant::kEnetstl, env).nf;
}

nf::SwapOptions InlineSwap() {
  nf::SwapOptions options;
  options.warmup_bursts = 0;
  options.transfer_state = false;  // the twin is already warm
  return options;
}

void RefillTwins(ChainRig& rig, std::size_t count) {
  while (rig.twins.size() < count) {
    rig.twins.push_back(MakeTwin(rig.env));
  }
}

std::unique_ptr<ChainRig> Setup(Kind kind, u64 seed) {
  auto rig = std::make_unique<ChainRig>();
  rig->env.flows = pktgen::MakeFlowPopulation(kEnvFlows, SubSeed(seed, 1));
  rig->env.zipf =
      pktgen::MakeZipfTrace(rig->env.flows, 16384, 1.1, SubSeed(seed, 2));
  rig->env.uniform =
      pktgen::MakeUniformTrace(rig->env.flows, 16384, SubSeed(seed, 3));
  const std::vector<ebpf::FiveTuple> resident(
      rig->env.flows.begin(), rig->env.flows.begin() + kTraceFlows);
  rig->trace =
      kind == Kind::kChain4
          ? pktgen::MakeUniformTrace(resident, kTracePackets, SubSeed(seed, 4))
          : pktgen::MakeZipfTrace(resident, kTracePackets, 1.1,
                                  SubSeed(seed, 4));
  rig->ctxs.resize(rig->trace.size());
  for (std::size_t i = 0; i < rig->trace.size(); ++i) {
    rig->ctxs[i] = ebpf::XdpContext{rig->trace[i].frame,
                                    rig->trace[i].frame + ebpf::kFrameSize, 0};
  }
  rig->chain = nf::MakeBenchChain(StagesOf(kind), nf::Variant::kEnetstl,
                                  rig->env, "bench");
  if (rig->chain == nullptr) {
    return nullptr;
  }
  rig->chain->EnableFusion();
  if (!rig->chain->TryPromoteNow()) {
    return nullptr;
  }
  if (kind == Kind::kChainSwap) {
    rig->plane = std::make_unique<nf::ChainReconfig>(*rig->chain);
    RefillTwins(*rig, kRepBursts / kSwapPeriod);
  }
  return rig;
}

std::vector<u8> LastStageState(nf::ChainExecutor& chain) {
  std::vector<u8> state;
  chain.stage(chain.depth() - 1).ExportState(state);
  return state;
}

class ChainWorkload : public Workload {
 public:
  ChainWorkload(Kind kind, u64 seed) : kind_(kind), seed_(seed) {}

  std::unique_ptr<Rig> Build() override { return Setup(kind_, seed_); }
  void Use(std::unique_ptr<Rig> rig) override {
    rig_.reset(static_cast<ChainRig*>(rig.release()));
  }
  MemRegime Regime() const override { return MemRegime::kCache; }

  void Gate(Result& out) override {
    if (kind_ == Kind::kChain4) {
      GateChain4(out);
    } else {
      GateSelfCheck(out);
      GateChainSwap(out);
    }
  }

  RepTiming Rep(Mode mode, SpanRecorder* spans,
                std::vector<u32>* burst_ns) override {
    if (rig_->plane != nullptr) {  // twins are built outside the timing
      RefillTwins(*rig_, (kWarmBursts + kRepBursts) / kSwapPeriod + 1);
    }
    return TimeRep(mode, kRepBursts, burst_ns,
                   [&](auto m, u32 bursts, std::vector<u32>* ns) {
                     RunBursts<decltype(m)::value>(*rig_, bursts, spans, ns,
                                                   nullptr);
                   });
  }

  void BeginLedger(SpanRecorder& spans) override {
    names_.burst = spans.Intern("pktgen.burst");
    names_.call = spans.Intern(kind_ == Kind::kChain4
                                   ? "nf.chain.ProcessBurst"
                                   : "nf.reconfig.ProcessBurst");
    swap_name_ = spans.Intern("nf.reconfig.SwapNfWith");
    fusion0_ = rig_->chain->fusion_stats();
    swap_ns_.clear();
  }

  double FillLedger(double budget_s, SpanRecorder& spans,
                    Ledger* ledger) override {
    const nf::FusionStats& f1 = rig_->chain->fusion_stats();
    const double fused =
        static_cast<double>(f1.fused_bursts - fusion0_.fused_bursts);
    const double generic =
        static_cast<double>(f1.generic_bursts - fusion0_.generic_bursts);
    ledger->fused_burst_frac =
        fused + generic > 0 ? fused / (fused + generic) : 0.0;
    ledger->demotions = static_cast<double>(f1.demotions - fusion0_.demotions);
    StageWalk(budget_s, spans, ledger);
    ConntrackProbe(rig_->trace, budget_s, &spans, ledger);

    // Swaps: chain_swap's own schedule; chain4 swaps its first cuckoo-filter
    // kProbeSwaps times after the reps, re-promoting between swaps.
    double housekeeping_ns_per_pkt = 0.0;
    if (kind_ == Kind::kChain4) {
      nf::ChainReconfig plane(*rig_->chain);
      ebpf::XdpAction v[kBurst];
      for (u32 i = 0; i < kProbeSwaps; ++i) {
        auto twin = MakeTwin(rig_->env);
        const u32 span = spans.Begin(swap_name_, 0);
        const u64 t0 = NowNs();
        const bool ok =
            plane.SwapNfWith(kSwapStage, std::move(twin), InlineSwap()).ok();
        const u64 t1 = NowNs();
        spans.End(span);
        swap_ns_.push_back(static_cast<u32>(t1 - t0));
        ledger->swap_rollbacks += ok ? 0 : 1;
        for (u32 k = 0; k < kProbeBursts; ++k) {
          plane.ProcessBurst(&rig_->ctxs[k * kBurst], kBurst, v);
        }
      }
    } else {
      ledger->swap_rollbacks =
          static_cast<double>(rig_->plane->stats().swaps_rolled_back);
      // One swap per kSwapPeriod bursts, amortized over their packets.
      housekeeping_ns_per_pkt =
          MeanPer(swap_ns_, static_cast<double>(kSwapPeriod) * kBurst);
    }
    ledger->swap_p50_us = Percentile(swap_ns_, 50.0) / 1e3;
    ledger->swap_p99_us = Percentile(swap_ns_, 99.0) / 1e3;
    ledger->swap_samples = swap_ns_.size();
    return housekeeping_ns_per_pkt;
  }

  const pktgen::Trace& ProbeTrace() const override { return rig_->trace; }
  u32 ProbePopulation() const override { return kEnvFlows; }

 private:
  // Runs `bursts` bursts through the datapath entry point; chain_swap swaps
  // its cuckoo-filter stage before every kSwapPeriod-th burst. Every verdict
  // goes to `verdicts_out`, in order, when it is given.
  template <Mode kMode>
  void RunBursts(ChainRig& rig, u32 bursts, SpanRecorder* spans,
                 std::vector<u32>* burst_ns, ebpf::XdpAction* verdicts_out) {
    const u32 trace_bursts = static_cast<u32>(rig.trace.size() / kBurst);
    std::size_t out = 0;
    RunBurstLoop<kMode>(
        bursts, spans, names_, burst_ns,
        [&](u32 root) {
          if (kMode != Mode::kEmpty && rig.plane != nullptr &&
              rig.bursts_run % kSwapPeriod == kSwapPeriod - 1) {
            Swap<kMode>(rig, spans, root);
          }
          return &rig.ctxs[(rig.bursts_run % trace_bursts) * kBurst];
        },
        [&](ebpf::XdpContext* c, ebpf::XdpAction* v) {
          if (rig.plane != nullptr) {
            rig.plane->ProcessBurst(c, kBurst, v);
          } else {
            rig.chain->ProcessBurst(c, kBurst, v);
          }
        },
        [&](u32, const ebpf::XdpAction* v) {
          for (u32 i = 0; i < kBurst; ++i) {
            failed_ += v[i] == ebpf::XdpAction::kAborted;
          }
          if (verdicts_out != nullptr) {
            std::copy(v, v + kBurst, verdicts_out + out);
            out += kBurst;
          }
          ++rig.bursts_run;
        });
    attempted_ += static_cast<u64>(bursts) * kBurst;
  }

  template <Mode kMode>
  void Swap(ChainRig& rig, SpanRecorder* spans, u32 root) {
    if (rig.twins.empty()) {
      RefillTwins(rig, 1);
    }
    std::unique_ptr<nf::NetworkFunction> twin = std::move(rig.twins.back());
    rig.twins.pop_back();
    const u32 span = SpanBegin<kMode>(spans, swap_name_, root);
    const u64 t0 = NowNs();
    const nf::ReconfigResult r =
        rig.plane->SwapNfWith(kSwapStage, std::move(twin), InlineSwap());
    const u64 t1 = NowNs();
    SpanEnd<kMode>(spans, span);
    swap_ns_.push_back(static_cast<u32>(t1 - t0));
    ++attempted_;
    if (!r.ok()) {
      ++failed_;
      ++swaps_failed_;
    }
  }

  // chain4: fused burst verdicts over the whole trace must equal the chain's
  // own scalar tail-call Process walk, and every packet must pass.
  void GateChain4(Result& out) {
    if (!rig_->chain->fused()) {
      out.Mismatch("chain4: chain did not reach the fused state");
      return;
    }
    const std::size_t n = rig_->trace.size();
    std::vector<ebpf::XdpAction> scalar(n);
    for (std::size_t i = 0; i < n; ++i) {
      ebpf::XdpContext ctx = rig_->ctxs[i];
      scalar[i] = rig_->chain->Process(ctx);
    }
    std::vector<ebpf::XdpAction> burst(n);
    std::vector<u32> ns;
    RunBursts<Mode::kUntraced>(*rig_, static_cast<u32>(n / kBurst), nullptr,
                               &ns, burst.data());
    for (std::size_t i = 0; i < n; ++i) {
      if (burst[i] != scalar[i]) {
        out.Mismatch("chain4: burst verdict differs from the scalar walk at "
                     "packet " + std::to_string(i));
        return;
      }
      if (scalar[i] != ebpf::XdpAction::kPass) {
        out.Mismatch("chain4: packet " + std::to_string(i) +
                     " did not pass all four stages");
        return;
      }
    }
  }

  // Drives `rig` through `bursts` bursts with its swap schedule running, and
  // walks the unswapped `reference` chain through the same packets in scalar
  // order. Returns the first divergence, or "" when there is none: a burst
  // verdict, or the exported state of the last stage at the end of a swap
  // period and of the run. Every final verdict of this chain is XDP_DROP
  // (heavykeeper's), so verdicts alone cannot show what a swapped stage did;
  // heavykeeper's state can, as it counts exactly the packets the stages
  // before it passed.
  std::string SwapDivergence(ChainRig& rig, nf::ChainExecutor& reference,
                             u32 bursts) {
    const u32 trace_bursts = static_cast<u32>(rig.trace.size() / kBurst);
    std::vector<ebpf::XdpAction> got(kBurst);
    std::vector<u32> ns;
    for (u32 k = 0; k < bursts; ++k) {
      const u32 b = static_cast<u32>(rig.bursts_run % trace_bursts);
      RunBursts<Mode::kUntraced>(rig, 1, nullptr, &ns, got.data());
      for (u32 i = 0; i < kBurst; ++i) {
        ebpf::XdpContext ctx = rig.ctxs[b * kBurst + i];
        if (reference.Process(ctx) != got[i]) {
          return "verdict differs from the unswapped scalar walk at burst " +
                 std::to_string(k);
        }
      }
      if ((k + 1) % kSwapPeriod == 0 || k + 1 == bursts) {
        if (LastStageState(*rig.chain) != LastStageState(reference)) {
          return "last-stage state differs from the unswapped scalar walk "
                 "after burst " + std::to_string(k);
        }
      }
    }
    return "";
  }

  // chain_swap: kGateBursts bursts (16 swaps) against an unswapped reference.
  void GateChainSwap(Result& out) {
    auto reference = nf::MakeBenchChain(StagesOf(kind_), nf::Variant::kEnetstl,
                                        rig_->env, "ref");
    if (reference == nullptr) {
      out.Mismatch("chain_swap: reference chain failed to build");
      return;
    }
    if (LastStageState(*reference).empty()) {
      out.Mismatch("chain_swap: the last stage exports no state to compare");
      return;
    }
    const u64 failed0 = swaps_failed_;
    const std::string diverged =
        SwapDivergence(*rig_, *reference, kGateBursts);
    if (!diverged.empty()) {
      out.Mismatch("chain_swap: " + diverged);
    } else if (swaps_failed_ != failed0) {
      out.Mismatch("chain_swap: a gate swap was rolled back");
    }
  }

  // The gate must see a wrong swap: on a second rig, an unprimed
  // cuckoo-filter (which passes none of the trace's flows) replaces the
  // primed one at the first swap, and SwapDivergence must report it.
  void GateSelfCheck(Result& out) {
    std::unique_ptr<ChainRig> broken = Setup(kind_, seed_);
    auto reference = nf::MakeBenchChain(StagesOf(kind_), nf::Variant::kEnetstl,
                                        rig_->env, "ref");
    const nf::NfEntry* entry = nf::NfRegistry::Global().Lookup(kSwapStage);
    if (broken == nullptr || reference == nullptr || entry == nullptr) {
      out.Mismatch("chain_swap: gate self-check failed to build");
      return;
    }
    broken->twins.clear();
    broken->twins.push_back(entry->factory(nf::Variant::kEnetstl));
    if (SwapDivergence(*broken, *reference, 2 * kSwapPeriod).empty()) {
      out.Mismatch("chain_swap: the gate did not detect an unprimed "
                   "cuckoo-filter swapped in");
    }
  }

  // Each stage's ProcessBurst run alone on the bursts it sees in the chain
  // (the survivors of the stages before it), walked by the benchmark.
  void StageWalk(double budget_s, SpanRecorder& spans, Ledger* ledger) {
    nf::ChainExecutor& chain = *rig_->chain;
    const u32 depth = chain.depth();
    std::vector<u16> names(depth);
    std::vector<std::string> labels(depth);
    for (u32 i = 0; i < depth; ++i) {
      labels[i] = std::to_string(i) + "-" + std::string(chain.stage(i).name());
      names[i] = spans.Intern("nf.stage." + labels[i]);
    }
    std::vector<u64> ns(depth, 0);
    u64 offered = 0;
    ebpf::XdpContext live[kBurst];
    ebpf::XdpAction v[kBurst];
    const u32 trace_bursts = static_cast<u32>(rig_->trace.size() / kBurst);
    u32 b = 0;
    const u64 deadline = NowNs() + static_cast<u64>(budget_s * 1e9);
    while (offered < 65536 || NowNs() < deadline) {
      std::copy(&rig_->ctxs[b * kBurst], &rig_->ctxs[b * kBurst] + kBurst,
                live);
      u32 n = kBurst;
      for (u32 i = 0; i < depth && n > 0; ++i) {
        const u32 span = spans.Begin(names[i], 0);
        const u64 t0 = NowNs();
        chain.stage(i).ProcessBurst(live, n, v);
        const u64 t1 = NowNs();
        spans.End(span);
        ns[i] += t1 - t0;
        u32 m = 0;
        for (u32 j = 0; j < n; ++j) {
          if (v[j] == ebpf::XdpAction::kPass) {
            live[m++] = live[j];
          }
        }
        n = m;
      }
      offered += kBurst;
      b = (b + 1) % trace_bursts;
    }
    ledger->stages_ns_per_pkt = 0.0;
    for (u32 i = 0; i < depth; ++i) {
      const double per =
          static_cast<double>(ns[i]) / static_cast<double>(offered);
      ledger->stages.emplace_back(labels[i], per);
      ledger->stages_ns_per_pkt += per;
    }
  }

  Kind kind_;
  u64 seed_;
  std::unique_ptr<ChainRig> rig_;
  BurstSpans names_;
  u16 swap_name_ = 0;
  nf::FusionStats fusion0_;
  std::vector<u32> swap_ns_;  // request-to-commit time of every swap
  u64 swaps_failed_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeChain4(u64 seed) {
  return std::make_unique<ChainWorkload>(Kind::kChain4, seed);
}

std::unique_ptr<Workload> MakeChainSwap(u64 seed) {
  return std::make_unique<ChainWorkload>(Kind::kChainSwap, seed);
}

}  // namespace rb
