// Stateful conntrack/NAT costs (DESIGN.md §13), reported as two separate
// regimes because they stress different machinery:
//
// Part 1 — flow setup/teardown rate: an alternating create / RST-teardown
// cycle over an all-TCP flow set. Every packet is one table mutation (paired
// two-direction insert + timer arm, or paired unlink + timer cancel); the
// virtual clock advances one wheel slot per burst so the eNetSTL engine also
// pays its steady aging sweep (tombstone reclamation included).
//
// Part 2 — steady-state lookup: a resident established table probed by a
// Zipf trace with no flag traffic, so every packet is a hit + refresh. This
// is where the eNetSTL batched path (one LookupPairBatch per chunk with
// cross-packet prefetch) must beat the scalar eBPF-model hash-map walk — the
// bench exits nonzero if it does not.
//
// Part 3 — NAT steady rewrite: the same resident-table regime in kNat mode;
// every forward hit rewrites src ip/port in the frame. Frames are re-copied
// per burst (rewrites are in-place and the pipeline's trace wraps).
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "nf/conntrack.h"
#include "pktgen/flowgen.h"
#include "pktgen/packet.h"
#include "pktgen/pipeline.h"

namespace {

using bench::u32;
using bench::u64;
using ebpf::u8;

constexpr u32 kBurstSize = nf::kMaxNfBurst;  // 64
constexpr u32 kSetupFlows = 8192;            // create/teardown cycle length
constexpr u32 kSteadyFlows = 32768;          // resident table population

nf::ConntrackConfig MakeConfig(nf::CtMode mode) {
  nf::ConntrackConfig config;
  config.mode = mode;
  config.table.max_flows = 65536;
  return config;
}

std::unique_ptr<nf::ConntrackBase> MakeEngine(nf::Variant v, nf::CtMode mode) {
  if (v == nf::Variant::kEbpf) {
    return std::make_unique<nf::ConntrackEbpf>(MakeConfig(mode));
  }
  return std::make_unique<nf::ConntrackEnetstl>(MakeConfig(mode));
}

// All-TCP variant of the generated population: teardown is RST-driven, and
// only TCP flows honour RST (a UDP "RST" would just refresh).
std::vector<ebpf::FiveTuple> TcpPopulation(u32 count, u32 seed) {
  std::vector<ebpf::FiveTuple> flows = pktgen::MakeFlowPopulation(count, seed);
  for (ebpf::FiveTuple& t : flows) {
    t.protocol = 6;
  }
  return flows;
}

void SetTcpFlags(pktgen::Packet& p, u8 flags) {
  p.frame[ebpf::kL4HeaderOffset + 13] = flags;
}

// Part 1 trace: flow i as {plain (create), RST (teardown)} adjacent pairs.
pktgen::Trace SetupTeardownTrace(const std::vector<ebpf::FiveTuple>& flows) {
  pktgen::Trace trace;
  trace.reserve(flows.size() * 2);
  for (const ebpf::FiveTuple& t : flows) {
    trace.push_back(pktgen::Packet::FromTuple(t));
    trace.push_back(pktgen::Packet::FromTuple(t));
    SetTcpFlags(trace.back(), nf::kTcpRst);
  }
  return trace;
}

// One setup/teardown pass over a fresh engine (the cycle mutates the table).
double SetupTeardownPass(nf::Variant v, const pktgen::Trace& trace,
                         const pktgen::Pipeline& pipeline) {
  auto nf_engine = MakeEngine(v, nf::CtMode::kTrack);
  u64 now = 0;
  auto handler = [&](ebpf::XdpContext* ctxs, u32 count,
                     ebpf::XdpAction* verdicts) {
    nf_engine->ProcessBurst(ctxs, count, verdicts);
    // One wheel slot per burst: the eNetSTL engine's aging sweep (and the
    // cancelled-timer tombstone reclaim) is part of its steady cost.
    now += 1ull << 20;
    nf_engine->AdvanceTo(now);
  };
  return pipeline.MeasureThroughputBurst(handler, trace).pps / 1e6;
}

// Primes one resident flow per population entry at virtual time zero; the
// clock never advances afterwards, so the table stays fully live.
void PrimeResident(nf::ConntrackBase& nf_engine,
                   const std::vector<ebpf::FiveTuple>& flows) {
  for (const ebpf::FiveTuple& t : flows) {
    pktgen::Packet p = pktgen::Packet::FromTuple(t);
    ebpf::XdpContext ctx{p.frame, p.frame + ebpf::kFrameSize, 0};
    (void)nf_engine.Process(ctx);
  }
}

double SteadyScalarPass(nf::ConntrackBase& nf_engine,
                        const pktgen::Trace& trace,
                        const pktgen::Pipeline& pipeline) {
  auto handler = [&](ebpf::XdpContext& ctx) { return nf_engine.Process(ctx); };
  return pipeline.MeasureThroughput(handler, trace).pps / 1e6;
}

double SteadyBurstPass(nf::ConntrackBase& nf_engine,
                       const pktgen::Trace& trace,
                       const pktgen::Pipeline& pipeline) {
  auto handler = [&](ebpf::XdpContext* ctxs, u32 count,
                     ebpf::XdpAction* verdicts) {
    nf_engine.ProcessBurst(ctxs, count, verdicts);
  };
  return pipeline.MeasureThroughputBurst(handler, trace).pps / 1e6;
}

// NAT rewrites mutate frames in place and the pipeline's working trace wraps
// around, so each burst re-copies pristine frames before processing (the
// same memcpy cost lands on both engines).
double NatBurstPass(nf::ConntrackBase& nf_engine, const pktgen::Trace& trace,
                    const pktgen::Pipeline& pipeline) {
  pktgen::Packet copies[kBurstSize];
  ebpf::XdpContext scratch[kBurstSize];
  auto handler = [&](ebpf::XdpContext* ctxs, u32 count,
                     ebpf::XdpAction* verdicts) {
    for (u32 i = 0; i < count; ++i) {
      std::memcpy(copies[i].frame, ctxs[i].data, ebpf::kFrameSize);
      scratch[i] = ebpf::XdpContext{copies[i].frame,
                                    copies[i].frame + ebpf::kFrameSize, 0};
    }
    nf_engine.ProcessBurst(scratch, count, verdicts);
  };
  return pipeline.MeasureThroughputBurst(handler, trace).pps / 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  const int code = bench::HandleRegistryArgs(&argc, argv);
  if (code >= 0) {
    return code;
  }
  bench::JsonReport report("conntrack", argc, argv);
  const pktgen::Pipeline pipeline = bench::MakePipeline();

  bench::PrintHeader(
      "Stateful conntrack/NAT: setup/teardown vs steady-state lookup");

  // Part 1 — setup/teardown.
  const std::vector<ebpf::FiveTuple> setup_flows =
      TcpPopulation(kSetupFlows, 0x51e2d4u);
  const pktgen::Trace churn = SetupTeardownTrace(setup_flows);
  std::printf("\nsetup+teardown (create/RST pairs, %u-flow cycle)\n",
              kSetupFlows);
  std::printf("%-16s %10s\n", "engine", "Mpps");
  const bench::Reps setup(bench::kReportReps, {
      [&] { return SetupTeardownPass(nf::Variant::kEbpf, churn, pipeline); },
      [&] { return SetupTeardownPass(nf::Variant::kEnetstl, churn, pipeline); },
  });
  const double st_ebpf = setup.Best(0);
  const double st_enetstl = setup.Best(1);
  std::printf("%-16s %10.3f\n", "eBPF-model", st_ebpf);
  std::printf("%-16s %10.3f\n", "eNetSTL", st_enetstl);
  report.Add("setup_teardown", "ebpf", st_ebpf);
  report.Add("setup_teardown", "enetstl", st_enetstl);

  // Part 2 — steady-state lookup over a resident table.
  const std::vector<ebpf::FiveTuple> steady_flows =
      pktgen::MakeFlowPopulation(kSteadyFlows, 0x77aa13u);
  const pktgen::Trace zipf =
      pktgen::MakeZipfTrace(steady_flows, 65536, 0.99, 0x2b1fu);
  std::printf("\nsteady-state lookup (%u resident flows, zipf 0.99)\n",
              kSteadyFlows);
  std::printf("%-16s %10s\n", "engine/path", "Mpps");
  auto ebpf_track = MakeEngine(nf::Variant::kEbpf, nf::CtMode::kTrack);
  auto enetstl_track = MakeEngine(nf::Variant::kEnetstl, nf::CtMode::kTrack);
  PrimeResident(*ebpf_track, steady_flows);
  PrimeResident(*enetstl_track, steady_flows);
  // The four steady passes interleave in one runner: the gate below is a
  // paired ratio, so drift must land on both of its operands alike.
  const bench::Reps steady(bench::kReportReps, {
      [&] { return SteadyScalarPass(*ebpf_track, zipf, pipeline); },
      [&] { return SteadyBurstPass(*ebpf_track, zipf, pipeline); },
      [&] { return SteadyScalarPass(*enetstl_track, zipf, pipeline); },
      [&] { return SteadyBurstPass(*enetstl_track, zipf, pipeline); },
  });
  const double steady_ebpf_scalar = steady.Best(0);
  const double steady_ebpf_burst = steady.Best(1);
  const double steady_enetstl_scalar = steady.Best(2);
  const double steady_enetstl_burst = steady.Best(3);
  std::printf("%-16s %10.3f\n", "eBPF scalar", steady_ebpf_scalar);
  std::printf("%-16s %10.3f\n", "eBPF burst", steady_ebpf_burst);
  std::printf("%-16s %10.3f\n", "eNetSTL scalar", steady_enetstl_scalar);
  std::printf("%-16s %10.3f\n", "eNetSTL burst", steady_enetstl_burst);
  report.Add("steady", "ebpf-scalar", steady_ebpf_scalar);
  report.Add("steady", "ebpf-burst", steady_ebpf_burst);
  report.Add("steady", "enetstl-scalar", steady_enetstl_scalar);
  report.Add("steady", "enetstl-burst", steady_enetstl_burst);

  // Part 3 — NAT steady rewrite.
  std::printf("\nNAT steady rewrite (burst, per-burst frame copies)\n");
  std::printf("%-16s %10s\n", "engine", "Mpps");
  auto ebpf_nat = MakeEngine(nf::Variant::kEbpf, nf::CtMode::kNat);
  auto enetstl_nat = MakeEngine(nf::Variant::kEnetstl, nf::CtMode::kNat);
  PrimeResident(*ebpf_nat, steady_flows);
  PrimeResident(*enetstl_nat, steady_flows);
  const bench::Reps nat(bench::kReportReps, {
      [&] { return NatBurstPass(*ebpf_nat, zipf, pipeline); },
      [&] { return NatBurstPass(*enetstl_nat, zipf, pipeline); },
  });
  const double nat_ebpf = nat.Best(0);
  const double nat_enetstl = nat.Best(1);
  std::printf("%-16s %10.3f\n", "eBPF-model", nat_ebpf);
  std::printf("%-16s %10.3f\n", "eNetSTL", nat_enetstl);
  report.Add("nat_steady", "ebpf", nat_ebpf);
  report.Add("nat_steady", "enetstl", nat_enetstl);

  // The batched arena path exists to beat the scalar eBPF-model walk on the
  // steady regime; a loss is a regression, not noise. Decided on the paired
  // median ratio of the interleaved passes.
  const double steady_ratio = steady.PairedMedianRatio(3, 0);
  const bool invariant = steady_ratio > 1.0;
  std::printf("\n-- invariant eNetSTL burst > eBPF-model scalar (steady, "
              "paired median %.2fx): %s\n",
              steady_ratio, invariant ? "PASS" : "FAIL");
  if (!invariant) {
    return 1;
  }
  return 0;
}
