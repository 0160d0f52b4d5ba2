// Observability overhead: chain throughput with telemetry off versus 1/N
// sampling rates {1/1024, 1/64, 1/1}, over the bench_chain workload.
//
// The acceptance bar for the telemetry plane is that 1/64 sampling stays
// within 5% of the telemetry-off build (the rate a production deployment
// would run), while 1/1 shows the full cost of per-event ring emission. A
// RingbufConsumer drains the event ring on a second thread throughout — the
// realistic deployment shape, and it keeps the ring from filling (drops are
// reported, not hidden). The final JSON report carries the obs block
// (schema_version 3): per-scope histogram summaries and sampled top-K flows.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "nf/chain.h"
#include "obs/exporter.h"
#include "obs/flow_sampler.h"
#include "obs/telemetry.h"

namespace {

using bench::u32;
using bench::u64;

// Same stage roster and trace recipe as bench_chain, so overhead numbers are
// directly comparable to the chain sweep.
std::vector<std::string> ChainStages(u32 length) {
  static const char* kCycle[] = {"cuckoo-filter", "vbf-membership"};
  std::vector<std::string> names;
  for (u32 i = 0; i < length; ++i) {
    names.push_back(kCycle[i % 2]);
  }
  return names;
}

pktgen::Trace MakeChainTrace(const nf::BenchEnv& env) {
  const std::vector<ebpf::FiveTuple> resident(env.flows.begin(),
                                              env.flows.begin() + 2048);
  return pktgen::MakeUniformTrace(resident, 16384, 79);
}

struct SamplingConfig {
  const char* label;
  bool on;
  u32 every;
};

}  // namespace

int main(int argc, char** argv) {
  if (const int code = bench::HandleRegistryArgs(&argc, argv); code >= 0) {
    return code;
  }
  bench::JsonReport report("obs_overhead", argc, argv);
  bench::PrintHeader(
      "Observability overhead: chain throughput vs sampling rate");
  if (!obs::kCompiledIn) {
    std::printf("-- observability compiled out (ENETSTL_OBS=OFF): all rates "
                "measure the bare datapath\n");
  }

  const nf::BenchEnv env = nf::MakeDefaultBenchEnv();
  const pktgen::Trace trace = MakeChainTrace(env);

  obs::Telemetry& telemetry = obs::Telemetry::Global();
  obs::FlowSampler sampler(8);
  ebpf::RingbufConsumer consumer(
      telemetry.ring(),
      [&sampler](const void* payload, ebpf::u32 len) {
        sampler.IngestRecord(payload, len);
      });

  const SamplingConfig kConfigs[] = {
      {"off", false, 0},
      {"1/1024", true, 1024},
      {"1/64", true, 64},
      {"1/1", true, 1},
  };
  constexpr int kNumConfigs = 4;

  std::printf("%-12s", "chain_depth");
  for (const SamplingConfig& config : kConfigs) {
    std::printf(" %9s(Mpps) %7s", config.label, "ovh(%)");
  }
  std::printf("\n");

  const pktgen::Pipeline pipeline = bench::MakePipeline(32);
  bool rate64_within_5pct = true;
  double worst_rate64_overhead = 0.0;
  const u32 kDepths[] = {1, 2, 4, 8};
  for (const u32 depth : kDepths) {
    const std::vector<std::string> stages = ChainStages(depth);
    // One chain per config (so sampling never sees another config's table
    // state), all constructed up front; measurement interleaves configs.
    std::unique_ptr<nf::NetworkFunction> chains[kNumConfigs];
    for (int c = 0; c < kNumConfigs; ++c) {
      chains[c] =
          nf::MakeBenchChain(stages, nf::Variant::kEnetstl, env, "chain");
      if (!chains[c]) {
        std::fprintf(stderr, "chain construction failed at depth %u\n", depth);
        return 1;
      }
    }
    // Noise on the shared core runs +-5% per pass and drifts slowly, so the
    // overhead estimate is PAIRED: each rep measures off and every sampling
    // rate back-to-back, and the overhead is 1 - the median over reps of
    // each rate's ratio to that same rep's off pass (drift cancels within
    // the pair). The Mpps columns stay best-of-reps. Fifteen reps, as for
    // bench_reconfig's dip gate. The worst-depth 1/64 overhead sits near the
    // 5% budget on a 4-vCPU Xeon (EXPERIMENTS.md), so the verdict can still
    // flip between runs.
    std::vector<bench::Reps::Pass> passes;
    for (int c = 0; c < kNumConfigs; ++c) {
      passes.push_back([&, c] {
        if (kConfigs[c].on) {
          telemetry.Enable(kConfigs[c].every);
        } else {
          telemetry.Disable();
        }
        const auto stats =
            pipeline.MeasureThroughputBurst(chains[c]->BurstHandler(), trace);
        telemetry.Disable();
        return stats.pps / 1e6;
      });
    }
    const bench::Reps reps(15, passes);
    std::printf("%-12u", depth);
    for (int c = 0; c < kNumConfigs; ++c) {
      const double overhead_pct =
          c == 0 ? 0.0 : (1.0 - reps.PairedMedianRatio(c, 0)) * 100.0;
      report.Add(kConfigs[c].label, std::to_string(depth), reps.Best(c));
      std::printf(" %15.3f %7.1f", reps.Best(c), overhead_pct);
      if (std::string(kConfigs[c].label) == "1/64") {
        worst_rate64_overhead = std::max(worst_rate64_overhead, overhead_pct);
        rate64_within_5pct = rate64_within_5pct && overhead_pct <= 5.0;
      }
    }
    std::printf("\n");
  }

  consumer.Stop();
  const obs::ObsReport obs_report = obs::CollectObsReport(telemetry, &sampler);
  report.SetObsBlock(obs::ObsReportJson(obs_report));

  std::printf("-- ring events consumed: %llu, dropped: %llu; top-%zu flows "
              "sampled from %llu events\n",
              static_cast<unsigned long long>(consumer.consumed()),
              static_cast<unsigned long long>(obs_report.ring_dropped),
              obs_report.top_flows.size(),
              static_cast<unsigned long long>(sampler.events()));
  if (obs::kCompiledIn) {
    std::printf("-- 1/64 sampling overhead: worst %.1f%% across depths — %s "
                "the 5%% budget\n",
                worst_rate64_overhead,
                rate64_within_5pct ? "within" : "EXCEEDS");
  }
  return 0;
}
