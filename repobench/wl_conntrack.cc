// nat_churn: conntrack kNat (eNetSTL engine) over kResident established
// flows, the one workload that writes beside its reads.
//
// The input is a cyclic schedule of kCycleBursts bursts of kBurst frames.
// Each burst holds one new connection (SYN of a churn flow), one RST that
// tears down the churn flow opened kChurnLag bursts earlier, and
// kBurst - 2 probes of the resident flows drawn Zipf(0.99); a quarter of the
// probes are reply-direction packets addressed to the flow's NAT binding.
// The virtual clock advances one wheel slot per burst. Every resident flow
// appears at least once per cycle (a keepalive replaces a surplus probe of a
// popular flow for each resident flow the draws miss), and a cycle is shorter
// than the established timeout, so the population holds at kResident plus
// the open churn flows: arena alloc/free, paired index link/unlink, timer
// arm/cancel/sweep and NAT rewrite run every burst, and no insert is refused.
#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "nf/conntrack.h"
#include "pktgen/flowgen.h"
#include "workloads.h"

namespace rb {
namespace {

constexpr u32 kResident = 32768;
constexpr u32 kCycleBursts = 4096;
constexpr u32 kChurnFlows = kCycleBursts;  // one opened per burst
constexpr u32 kChurnLag = 64;              // bursts from SYN to RST
constexpr double kZipf = 0.99;
constexpr u32 kRepBursts = 4096;
constexpr u32 kGateBursts = kCycleBursts * 5 / 2;  // crosses a timeout
constexpr u32 kProbeSwaps = 15;

nf::ConntrackConfig NatConfig() {
  nf::ConntrackConfig config;
  config.mode = nf::CtMode::kNat;
  config.table.max_flows = 65536;
  // Room for every binding a long run hands out: one per churn connection.
  config.nat_pool_size = 4096;
  return config;
}

void SetTcpFlags(pktgen::Packet& p, u8 flags) {
  p.frame[ebpf::kL4HeaderOffset + 13] = flags;
}

pktgen::Packet TcpPacket(const ebpf::FiveTuple& t, u8 flags) {
  pktgen::Packet p = pktgen::Packet::FromTuple(t);
  SetTcpFlags(p, flags);
  return p;
}

std::vector<ebpf::FiveTuple> TcpFlows(u32 count, u64 seed) {
  std::vector<ebpf::FiveTuple> flows = pktgen::MakeFlowPopulation(count, seed);
  for (ebpf::FiveTuple& t : flows) {
    t.protocol = nf::kProtoTcp;
  }
  return flows;
}

template <typename Engine>
struct NatRig : Rig {
  std::unique_ptr<Engine> ct;
  pktgen::Trace schedule;  // kCycleBursts * kBurst pristine frames
  u64 now_ns = 0;
  u64 bursts_run = 0;
};

// Builds the engine, primes every resident flow to ESTABLISHED (SYN, then
// the reply addressed to its NAT binding) and lays out the schedule. The
// reply tuples depend on the bindings, which both engines hand out in the
// same deterministic order, so the schedule is the same for either.
template <typename Engine>
std::unique_ptr<NatRig<Engine>> Setup(u64 seed) {
  auto rig = std::make_unique<NatRig<Engine>>();
  rig->ct = std::make_unique<Engine>(NatConfig());
  const std::vector<ebpf::FiveTuple> resident = TcpFlows(kResident, SubSeed(seed, 1));
  std::vector<ebpf::FiveTuple> reply(kResident);
  std::unordered_set<ebpf::FiveTuple, ebpf::FiveTupleHash> taken;
  for (u32 i = 0; i < kResident; ++i) {
    pktgen::Packet p = TcpPacket(resident[i], nf::kTcpSyn);
    ebpf::XdpContext ctx{p.frame, p.frame + ebpf::kFrameSize, 0};
    if (rig->ct->Process(ctx) != ebpf::XdpAction::kPass) {
      return nullptr;
    }
    ebpf::FiveTuple translated;
    ebpf::ParseFiveTuple(ctx, &translated);
    reply[i] = nf::FlowTable::ReverseTuple(translated);
    pktgen::Packet r = TcpPacket(reply[i], nf::kTcpSyn | nf::kTcpAck);
    ebpf::XdpContext rctx{r.frame, r.frame + ebpf::kFrameSize, 0};
    if (rig->ct->Process(rctx) != ebpf::XdpAction::kPass) {
      return nullptr;
    }
    taken.insert(resident[i]);
    taken.insert(reply[i]);
  }
  // Churn flows: fresh tuples that collide with no resident tuple.
  std::vector<ebpf::FiveTuple> churn;
  for (const ebpf::FiveTuple& t : TcpFlows(kChurnFlows * 2, SubSeed(seed, 2))) {
    if (churn.size() < kChurnFlows && taken.insert(t).second) {
      churn.push_back(t);
    }
  }
  if (churn.size() < kChurnFlows) {
    return nullptr;
  }

  // Probe draws (resident indices, Zipf over the resident flows), then a
  // keepalive for every resident flow they miss.
  constexpr u32 kProbesPerBurst = kBurst - 2;
  const u32 probes = kCycleBursts * kProbesPerBurst;
  std::vector<u32> pick(probes);
  std::vector<u32> hits(kResident, 0);
  {
    std::unordered_map<ebpf::FiveTuple, u32, ebpf::FiveTupleHash> index;
    for (u32 i = 0; i < kResident; ++i) {
      index.emplace(resident[i], i);
    }
    const std::vector<ebpf::FiveTuple> draws =
        KeysOf(pktgen::MakeZipfTrace(resident, probes, kZipf, SubSeed(seed, 3)));
    for (u32 j = 0; j < probes; ++j) {
      const auto it = index.find(draws[j]);
      if (it == index.end()) {
        return nullptr;
      }
      pick[j] = it->second;
      ++hits[pick[j]];
    }
  }
  pktgen::Rng rng(SubSeed(seed, 4));
  for (u32 f = 0; f < kResident; ++f) {
    while (hits[f] == 0) {
      const u32 slot = static_cast<u32>(rng.NextBounded(probes));
      if (hits[pick[slot]] > 1) {
        --hits[pick[slot]];
        pick[slot] = f;
        hits[f] = 1;
      }
    }
  }

  rig->schedule.resize(static_cast<std::size_t>(kCycleBursts) * kBurst);
  u32 next_probe = 0;
  for (u32 b = 0; b < kCycleBursts; ++b) {
    const u32 open_at = static_cast<u32>(rng.NextBounded(kBurst));
    u32 close_at = static_cast<u32>(rng.NextBounded(kBurst - 1));
    close_at += close_at >= open_at ? 1 : 0;
    for (u32 i = 0; i < kBurst; ++i) {
      pktgen::Packet& p = rig->schedule[static_cast<std::size_t>(b) * kBurst + i];
      if (i == open_at) {
        p = TcpPacket(churn[b], nf::kTcpSyn);
      } else if (i == close_at) {
        p = TcpPacket(churn[(b + kCycleBursts - kChurnLag) % kCycleBursts],
                      nf::kTcpRst);
      } else {
        const u32 f = pick[next_probe++];
        p = rng.NextBounded(4) == 0 ? TcpPacket(reply[f], nf::kTcpAck)
                                    : TcpPacket(resident[f], nf::kTcpAck);
      }
    }
  }
  return rig;
}


class NatWorkload : public Workload {
 public:
  explicit NatWorkload(u64 seed) : seed_(seed) {}

  std::unique_ptr<Rig> Build() override {
    return Setup<nf::ConntrackEnetstl>(seed_);
  }
  void Use(std::unique_ptr<Rig> rig) override {
    rig_.reset(static_cast<NatRig<nf::ConntrackEnetstl>*>(rig.release()));
  }
  MemRegime Regime() const override { return MemRegime::kShared; }

  // Verdicts and rewritten frames must equal a ConntrackEbpf twin replaying
  // the same packets with the same clock, over more than two cycles.
  void Gate(Result& out) override {
    auto twin = Setup<nf::ConntrackEbpf>(seed_);
    if (twin == nullptr) {
      out.Mismatch("nat_churn: eBPF twin set-up failed");
      return;
    }
    for (std::size_t i = 0; i < rig_->schedule.size(); ++i) {
      if (std::memcmp(rig_->schedule[i].frame, twin->schedule[i].frame,
                      ebpf::kFrameSize) != 0) {
        out.Mismatch("nat_churn: eBPF twin derived a different schedule");
        return;
      }
    }
    std::vector<pktgen::Packet> fa(kBurst);
    std::vector<pktgen::Packet> fb(kBurst);
    std::vector<ebpf::XdpAction> va(kBurst);
    std::vector<ebpf::XdpAction> vb(kBurst);
    std::vector<u32> ns;
    const u64 failed0 = failed_;
    for (u32 k = 0; k < kGateBursts; ++k) {
      RunBursts<Mode::kUntraced>(*rig_, 1, nullptr, &ns, fa.data(), va.data());
      RunBursts<Mode::kUntraced>(*twin, 1, nullptr, &ns, fb.data(), vb.data());
      for (u32 i = 0; i < kBurst; ++i) {
        if (va[i] != vb[i] ||
            std::memcmp(fa[i].frame, fb[i].frame, ebpf::kFrameSize) != 0) {
          out.Mismatch("nat_churn: verdict or rewritten frame differs from "
                       "the eBPF twin at burst " + std::to_string(k) +
                       " packet " + std::to_string(i));
          return;
        }
      }
    }
    if (failed_ != failed0) {
      out.Mismatch("nat_churn: " + std::to_string(failed_ - failed0) +
                   " packets were not passed during the gate");
    }
  }

  RepTiming Rep(Mode mode, SpanRecorder* spans,
                std::vector<u32>* burst_ns) override {
    return TimeRep(mode, kRepBursts, burst_ns,
                   [&](auto m, u32 bursts, std::vector<u32>* ns) {
                     RunBursts<decltype(m)::value>(*rig_, bursts, spans, ns,
                                                   nullptr, nullptr);
                   });
  }

  // The population must hold: every resident flow plus the open churn flows.
  void CheckAfterReps(Result& out) override {
    const u32 live = rig_->ct->table().live_flows();
    if (live < kResident || live > kResident + kChurnLag + 1) {
      out.Mismatch("nat_churn: live flows drifted to " + std::to_string(live));
    }
  }

  void BeginLedger(SpanRecorder& spans) override {
    names_.burst = spans.Intern("pktgen.burst");
    names_.call = spans.Intern("nf.conntrack.ProcessBurst");
    advance_name_ = spans.Intern("nf.conntrack.AdvanceTo");
    nf::ConntrackEnetstl& ct = *rig_->ct;
    hits0_ = ct.hits();
    misses0_ = ct.misses();
    created0_ = ct.created();
    torn0_ = ct.torn_down();
    stats0_ = ct.table().stats();
  }

  double FillLedger(double budget_s, SpanRecorder& spans,
                    Ledger* ledger) override {
    nf::ConntrackEnetstl& ct = *rig_->ct;
    const u64 hits = ct.hits() - hits0_;
    const u64 lookups = hits + ct.misses() - misses0_;
    ledger->ct_hit_frac =
        lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                : 0.0;
    ledger->ct_created = static_cast<double>(ct.created() - created0_);
    ledger->ct_torn_down = static_cast<double>(ct.torn_down() - torn0_);
    const nf::FlowTable::Stats& st = ct.table().stats();
    ledger->ct_lru_evictions =
        static_cast<double>(st.lru_evictions - stats0_.lru_evictions);
    ledger->ct_refused =
        static_cast<double>(st.insert_failures - stats0_.insert_failures);

    // The NF is the workload's only stage: its standalone time is its traced
    // ProcessBurst span, and AdvanceTo is timed per call.
    const auto totals = spans.Totals();
    const SpanTotals& call = totals.at("nf.conntrack.ProcessBurst");
    const SpanTotals& adv = totals.at("nf.conntrack.AdvanceTo");
    ledger->ct_burst_ns_per_pkt = static_cast<double>(call.total_ns) /
                                  static_cast<double>(call.count * kBurst);
    ledger->stages_ns_per_pkt = ledger->ct_burst_ns_per_pkt;
    ledger->stages.emplace_back("0-nat", ledger->stages_ns_per_pkt);
    const std::vector<u32> advance = spans.Durations("nf.conntrack.AdvanceTo");
    ledger->ct_advance_ns_p99 = Percentile(advance, 99.0);
    ledger->advance_samples = advance.size();

    std::vector<u32> swap_ns;
    ledger->swap_rollbacks = static_cast<double>(
        StateTransferSwapProbe(std::move(rig_->ct), kProbeSwaps, &swap_ns));
    ledger->swap_p50_us = Percentile(swap_ns, 50.0) / 1e3;
    ledger->swap_p99_us = Percentile(swap_ns, 99.0) / 1e3;
    ledger->swap_samples = swap_ns.size();
    return static_cast<double>(adv.total_ns) /
           static_cast<double>(adv.count * kBurst);
  }

  const pktgen::Trace& ProbeTrace() const override { return rig_->schedule; }
  u32 ProbePopulation() const override { return kResident; }

 private:
  // Runs `bursts` bursts: copy the burst's pristine frames (rewrites are in
  // place), ProcessBurst, then advance the clock one wheel slot. Every
  // processed frame and verdict go to `frames_out` and `verdicts_out`, in
  // order, when they are given.
  template <Mode kMode, typename Engine>
  void RunBursts(NatRig<Engine>& rig, u32 bursts, SpanRecorder* spans,
                 std::vector<u32>* burst_ns, pktgen::Packet* frames_out,
                 ebpf::XdpAction* verdicts_out) {
    pktgen::Packet frames[kBurst];
    ebpf::XdpContext ctxs[kBurst];
    const u64 slot_ns = rig.ct->config().table.wheel_granularity_ns;
    std::size_t out = 0;
    RunBurstLoop<kMode>(
        bursts, spans, names_, burst_ns,
        [&](u32) {
          std::memcpy(frames,
                      &rig.schedule[(rig.bursts_run % kCycleBursts) * kBurst],
                      sizeof(frames));
          for (u32 i = 0; i < kBurst; ++i) {
            ctxs[i] = ebpf::XdpContext{frames[i].frame,
                                       frames[i].frame + ebpf::kFrameSize, 0};
          }
          return ctxs;
        },
        [&](ebpf::XdpContext* c, ebpf::XdpAction* v) {
          rig.ct->ProcessBurst(c, kBurst, v);
        },
        [&](u32 root, const ebpf::XdpAction* v) {
          if constexpr (kMode != Mode::kEmpty) {
            rig.now_ns += slot_ns;
            const u32 span = SpanBegin<kMode>(spans, advance_name_, root);
            rig.ct->AdvanceTo(rig.now_ns);
            SpanEnd<kMode>(spans, span);
          }
          for (u32 i = 0; i < kBurst; ++i) {
            failed_ += v[i] != ebpf::XdpAction::kPass;
          }
          if (frames_out != nullptr) {
            std::memcpy(frames_out + out, frames, sizeof(frames));
            std::copy(v, v + kBurst, verdicts_out + out);
            out += kBurst;
          }
          ++rig.bursts_run;
        });
    attempted_ += static_cast<u64>(bursts) * kBurst;
  }

  u64 seed_;
  std::unique_ptr<NatRig<nf::ConntrackEnetstl>> rig_;
  BurstSpans names_;
  u16 advance_name_ = 0;
  u64 hits0_ = 0;
  u64 misses0_ = 0;
  u64 created0_ = 0;
  u64 torn0_ = 0;
  nf::FlowTable::Stats stats0_;
};

}  // namespace

std::unique_ptr<Workload> MakeNatChurn(u64 seed) {
  return std::make_unique<NatWorkload>(seed);
}

}  // namespace rb
