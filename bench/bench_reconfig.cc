// Live-reconfiguration costs on a running service chain (DESIGN.md §10).
//
// Part 1 — hot-swap latency (request-to-commit, ReconfigStats::last_swap_ns)
// for the three swap modes:
//   twin-inline    warm replacement, immediate commit at the call's burst
//                  boundary (build + verify + prog-array flip + re-fold);
//   state-transfer katran-lb backend swap exporting/importing the recorded
//                  connection table (the affinity-preserving path);
//   shadow-8       dual-write warm-up over 8 bursts — the latency window
//                  spans the bursts that warmed the replacement, and the
//                  packets shadowed in that window are the "packets in
//                  flight during the swap" the harness reports.
//
// Part 2 — throughput under a reconfiguration storm: per chain depth, the
// steady rate of an untouched chain vs the same chain with an inline twin
// swap fired from the datapath every kStormSwapPeriod bursts. The transient
// dip is the price of live reconfiguration; the acceptance budget is a <5%
// dip, where dip = 1 - the paired median of storm/steady over interleaved
// reps (the Mpps columns stay best-of-reps).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/app_chains.h"
#include "apps/katran_lb.h"
#include "bench/bench_util.h"
#include "nf/chain.h"
#include "nf/nf_registry.h"
#include "nf/reconfig.h"
#include "pktgen/packet.h"
#include "pktgen/pipeline.h"

namespace {

using bench::u32;
using bench::u64;

constexpr u32 kBurstSize = nf::kMaxNfBurst;  // 64
constexpr u32 kStormSwapPeriod = 256;        // bursts between storm swaps
constexpr double kDipBudgetPct = 5.0;
// Reps per depth for the dip: the gate reads the paired median of 15
// steady/storm pairs (at 9 it resolved no better than best-of-9 vs best-of-9).
constexpr int kDipReps = 15;

std::vector<std::string> StageNames(u32 length) {
  static const char* kCycle[] = {"cuckoo-filter", "vbf-membership"};
  std::vector<std::string> names;
  for (u32 i = 0; i < length; ++i) {
    names.push_back(kCycle[i % 2]);
  }
  return names;
}

// Bit-identical primed twin of a bench-chain stage: MakeBenchChain builds
// every stage through MakeVariantSetup, which reseeds the prandom helper,
// so a fresh setup of the same entry is byte-for-byte the loaded stage.
std::unique_ptr<nf::NetworkFunction> MakeTwin(const std::string& name,
                                              const nf::BenchEnv& env) {
  const nf::NfEntry* entry = nf::NfRegistry::Global().Lookup(name);
  if (entry == nullptr) {
    return nullptr;
  }
  return nf::MakeVariantSetup(*entry, nf::Variant::kEnetstl, env).nf;
}

nf::SwapOptions InlineSwap() {
  nf::SwapOptions options;
  options.warmup_bursts = 0;
  options.transfer_state = false;  // the twin is already warm
  return options;
}

struct LatencySummary {
  double min_us = 0.0;
  double p50_us = 0.0;
};

LatencySummary Summarize(const std::vector<u64>& ns) {
  std::vector<double> sorted(ns.begin(), ns.end());
  std::sort(sorted.begin(), sorted.end());
  return {obs::SortedQuantile(sorted.data(), sorted.size(), 0.0) / 1e3,
          obs::SortedQuantile(sorted.data(), sorted.size(), 0.5) / 1e3};
}

// One 64-packet burst drawn from the env trace, deep-copied so frame state
// never leaks between bursts.
void DriveOneBurst(nf::ChainReconfig& plane, const pktgen::Trace& trace) {
  pktgen::Packet copies[kBurstSize];
  ebpf::XdpContext ctxs[kBurstSize];
  ebpf::XdpAction verdicts[kBurstSize];
  for (u32 i = 0; i < kBurstSize; ++i) {
    copies[i] = trace[i % trace.size()];
    ctxs[i] = ebpf::XdpContext{copies[i].frame,
                               copies[i].frame + ebpf::kFrameSize, 0};
  }
  plane.ProcessBurst(ctxs, kBurstSize, verdicts);
}

LatencySummary MeasureTwinInline(const nf::BenchEnv& env, int reps) {
  auto chain = nf::MakeBenchChain(StageNames(4), nf::Variant::kEnetstl, env);
  if (chain == nullptr) {
    std::fprintf(stderr, "bench_reconfig: chain construction failed\n");
    std::exit(1);
  }
  nf::ChainReconfig plane(*chain);
  std::vector<u64> ns;
  for (int rep = 0; rep < reps; ++rep) {
    auto twin = MakeTwin("cuckoo-filter", env);
    const nf::ReconfigResult r =
        plane.SwapNfWith("cuckoo-filter", std::move(twin), InlineSwap());
    if (!r.ok()) {
      std::fprintf(stderr, "bench_reconfig: inline swap failed: %s\n",
                   r.message.c_str());
      std::exit(1);
    }
    ns.push_back(plane.stats().last_swap_ns);
  }
  return Summarize(ns);
}

LatencySummary MeasureStateTransfer(const nf::BenchEnv& env, int reps,
                                    double* state_kb_per_swap) {
  nf::ChainExecutor chain("lb");
  apps::KatranConfig config;
  chain.AddStage(
      std::make_unique<apps::KatranLb>(apps::CoreKind::kEnetstl, config));
  if (!chain.Load().ok) {
    std::fprintf(stderr, "bench_reconfig: lb chain failed to load\n");
    std::exit(1);
  }
  nf::ChainReconfig plane(chain);

  // Record a resident connection table; every swap exports and re-imports
  // it (Katran's affinity contract), so the blob size is the steady cost.
  auto* lb = dynamic_cast<apps::KatranLb*>(&chain.stage(0));
  const u32 connections =
      static_cast<u32>(std::min<std::size_t>(env.flows.size(), 8192));
  for (u32 f = 0; f < connections; ++f) {
    (void)lb->PickBackend(env.flows[f]);
  }

  std::vector<u64> ns;
  const u64 bytes_before = plane.stats().state_bytes;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<u32> backends(16);
    for (u32 b = 0; b < 16; ++b) {
      backends[b] = (rep % 2 == 0 ? 100 : 200) + b;
    }
    const nf::ReconfigResult r = apps::SwapLbBackends(plane, backends);
    if (!r.ok()) {
      std::fprintf(stderr, "bench_reconfig: backend swap failed: %s\n",
                   r.message.c_str());
      std::exit(1);
    }
    ns.push_back(plane.stats().last_swap_ns);
  }
  const u64 moved = plane.stats().state_bytes - bytes_before;
  *state_kb_per_swap =
      reps > 0 ? static_cast<double>(moved) / reps / 1024.0 : 0.0;
  return Summarize(ns);
}

LatencySummary MeasureShadowWarmup(const nf::BenchEnv& env, int reps,
                                   u64* inflight_per_swap) {
  auto chain = nf::MakeBenchChain(StageNames(4), nf::Variant::kEnetstl, env);
  if (chain == nullptr) {
    std::fprintf(stderr, "bench_reconfig: chain construction failed\n");
    std::exit(1);
  }
  nf::ChainReconfig plane(*chain);
  std::vector<u64> ns;
  u64 inflight = 0;
  for (int rep = 0; rep < reps; ++rep) {
    auto twin = MakeTwin("cuckoo-filter", env);
    nf::SwapOptions options;
    options.warmup_bursts = 8;
    options.transfer_state = false;
    const u64 shadow_before = plane.stats().shadow_packets;
    const nf::ReconfigResult r =
        plane.SwapNfWith("cuckoo-filter", std::move(twin), options);
    if (!r.ok()) {
      std::fprintf(stderr, "bench_reconfig: shadow swap failed: %s\n",
                   r.message.c_str());
      std::exit(1);
    }
    while (plane.swap_pending()) {
      DriveOneBurst(plane, env.uniform);
    }
    ns.push_back(plane.stats().last_swap_ns);
    inflight += plane.stats().shadow_packets - shadow_before;
  }
  *inflight_per_swap = reps > 0 ? inflight / reps : 0;
  return Summarize(ns);
}

// Steady vs storm throughput for one chain depth. The storm handler fires
// an inline twin swap (which re-folds the chain) from inside the datapath
// every kStormSwapPeriod bursts — the swap's full cost lands in the
// measured window, which is exactly the transient dip the budget bounds.
// Each rep runs a steady pass then a storm pass; pass 0 is steady, pass 1
// is storm.
bench::Reps MeasureDepth(const nf::BenchEnv& env, u32 depth) {
  auto chain =
      nf::MakeBenchChain(StageNames(depth), nf::Variant::kEnetstl, env);
  if (chain == nullptr) {
    std::fprintf(stderr, "bench_reconfig: depth-%u chain failed\n", depth);
    std::exit(1);
  }
  nf::ChainReconfig plane(*chain);
  const pktgen::Pipeline pipeline = bench::MakePipeline(kBurstSize);
  const pktgen::Pipeline::Options& opts = pipeline.options();
  const u64 bursts_per_pass =
      (opts.warmup_packets + opts.measure_packets) / kBurstSize + 8;
  const std::size_t swaps_per_pass =
      static_cast<std::size_t>(bursts_per_pass / kStormSwapPeriod) + 2;

  auto steady_pass = [&] {
    auto handler = [&plane](ebpf::XdpContext* ctxs, u32 count,
                            ebpf::XdpAction* verdicts) {
      plane.ProcessBurst(ctxs, count, verdicts);
    };
    return pipeline.MeasureThroughputBurst(handler, env.uniform).pps / 1e6;
  };
  auto storm_pass = [&] {
    // Replacements are built off the measured path (a real control plane
    // prepares them out-of-band); the storm pays commit + re-fold.
    std::vector<std::unique_ptr<nf::NetworkFunction>> twins;
    for (std::size_t i = 0; i < swaps_per_pass; ++i) {
      twins.push_back(MakeTwin("cuckoo-filter", env));
    }
    u64 bursts = 0;
    auto handler = [&](ebpf::XdpContext* ctxs, u32 count,
                       ebpf::XdpAction* verdicts) {
      plane.ProcessBurst(ctxs, count, verdicts);
      if (++bursts % kStormSwapPeriod == 0 && !twins.empty()) {
        (void)plane.SwapNfWith("cuckoo-filter", std::move(twins.back()),
                               InlineSwap());
        twins.pop_back();
      }
    };
    return pipeline.MeasureThroughputBurst(handler, env.uniform).pps / 1e6;
  };
  return bench::Reps(kDipReps, {steady_pass, storm_pass});
}

}  // namespace

int main(int argc, char** argv) {
  const int code = bench::HandleRegistryArgs(&argc, argv);
  if (code >= 0) {
    return code;
  }
  bench::JsonReport report("reconfig", argc, argv);
  const nf::BenchEnv env = nf::MakeDefaultBenchEnv();

  bench::PrintHeader(
      "Live reconfiguration: swap latency + throughput under a storm");

  std::printf("\n%-16s %12s %12s   %s\n", "swap mode", "min(us)", "p50(us)",
              "note");
  double state_kb = 0.0;
  u64 inflight = 0;
  const LatencySummary twin = MeasureTwinInline(env, 32);
  std::printf("%-16s %12.1f %12.1f   %s\n", "twin-inline", twin.min_us,
              twin.p50_us, "commit at call's burst boundary");
  const LatencySummary xfer = MeasureStateTransfer(env, 16, &state_kb);
  std::printf("%-16s %12.1f %12.1f   %.1f KB connection table/swap\n",
              "state-transfer", xfer.min_us, xfer.p50_us, state_kb);
  const LatencySummary shadow = MeasureShadowWarmup(env, 8, &inflight);
  std::printf("%-16s %12.1f %12.1f   %llu pkts shadowed in flight\n",
              "shadow-8", shadow.min_us, shadow.p50_us,
              static_cast<unsigned long long>(inflight));
  report.Add("swap_us_p50", "twin-inline", twin.p50_us);
  report.Add("swap_us_p50", "state-transfer", xfer.p50_us);
  report.Add("swap_us_p50", "shadow-8", shadow.p50_us);
  report.Add("swap_state_kb", "state-transfer", state_kb);
  report.Add("swap_inflight_pkts", "shadow-8",
             static_cast<double>(inflight));

  std::printf("\n%-8s %14s %14s %10s   swap every %u bursts\n", "depth",
              "steady(Mpps)", "storm(Mpps)", "dip(%)", kStormSwapPeriod);
  bool within_budget = true;
  for (const u32 depth : {2u, 4u, 8u}) {
    const bench::Reps reps = MeasureDepth(env, depth);
    const double steady = reps.Best(0);
    const double storm = reps.Best(1);
    const double dip = (1.0 - reps.PairedMedianRatio(1, 0)) * 100.0;
    within_budget = within_budget && dip < kDipBudgetPct;
    std::printf("%-8u %14.3f %14.3f %+10.2f\n", depth, steady, storm, dip);
    const std::string param = "depth" + std::to_string(depth);
    report.Add("steady", param, steady);
    report.Add("storm", param, storm);
  }
  std::printf("-- transient dip budget <%.0f%%: %s\n", kDipBudgetPct,
              within_budget ? "PASS" : "FAIL (noisy host or regression)");
  return 0;
}
