// Service-chain sweep: ChainExecutor throughput versus chain length (1..8
// stages) for all three variants, plus the RSS-sharded chain deployment.
// Every variant column runs the chain's one burst executor, the fused
// program Load() folds; the columns differ only in the stages' variant.
//
// Stages alternate the two membership NFs (cuckoo-filter, vbf-membership)
// and the trace draws uniformly from flows resident in both, so nearly every
// packet is PASS at every stage and traverses the whole chain — the sweep
// measures the cost of chain depth, not early-exit shortcuts.
// `--stages=a,b,c` benches an arbitrary registry-named chain instead of the
// default alternating sweep.
//
// Before measuring, every (length, variant) point re-checks the chain
// invariant on live traffic: burst-path verdicts must be bit-identical to
// per-packet scalar traversal. A mismatch exits non-zero.
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "nf/chain.h"
#include "pktgen/sharded_pipeline.h"

namespace {

using bench::u32;
using bench::u64;

// Stage roster for a chain of the given depth: membership NFs, alternating.
std::vector<std::string> ChainStages(u32 length) {
  static const char* kCycle[] = {"cuckoo-filter", "vbf-membership"};
  std::vector<std::string> names;
  for (u32 i = 0; i < length; ++i) {
    names.push_back(kCycle[i % 2]);
  }
  return names;
}

// Strips `--stages=a,b,c` from argv (the HandleRegistryArgs convention) and
// validates every name against the registry. Returns an exit code >= 0 when
// the process should terminate (unknown/unchainable stage), -1 to continue.
int HandleStagesArg(int* argc, char** argv, std::vector<std::string>* stages) {
  int out = 1;
  int code = -1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], "--stages=", 9) != 0) {
      argv[out++] = argv[i];
      continue;
    }
    stages->clear();
    std::string list = argv[i] + 9;
    std::size_t pos = 0;
    while (pos <= list.size()) {
      const std::size_t comma = list.find(',', pos);
      const std::string name =
          list.substr(pos, comma == std::string::npos ? comma : comma - pos);
      if (!name.empty()) {
        stages->push_back(name);
      }
      if (comma == std::string::npos) {
        break;
      }
      pos = comma + 1;
    }
    if (stages->empty()) {
      std::fprintf(stderr, "--stages= needs a comma-separated NF list\n");
      code = 1;
      continue;
    }
    for (const std::string& name : *stages) {
      const nf::NfEntry* entry = nf::NfRegistry::Global().Lookup(name);
      if (entry == nullptr || !entry->caps.chainable) {
        std::fprintf(stderr,
                     "unknown or unchainable stage '%s'; registered NFs:\n",
                     name.c_str());
        bench::PrintRegistryList(stderr);
        code = 1;
        break;
      }
    }
  }
  *argc = out;
  return code;
}

// True when every stage supports `variant` (apps have no kernel-native
// build, so custom chains may cover only a subset of the sweep columns).
bool ChainSupports(const std::vector<std::string>& stages,
                   nf::Variant variant) {
  for (const std::string& name : stages) {
    const nf::NfEntry* entry = nf::NfRegistry::Global().Lookup(name);
    if (entry == nullptr || !entry->Supports(variant)) {
      return false;
    }
  }
  return true;
}

// Uniform trace over flows resident in every stage's primed set (the vbf
// recipe primes the first 2048 flows, cuckoo-filter a superset), so chains
// stay on the all-PASS path.
pktgen::Trace MakeChainTrace(const nf::BenchEnv& env) {
  const std::vector<ebpf::FiveTuple> resident(env.flows.begin(),
                                              env.flows.begin() + 2048);
  return pktgen::MakeUniformTrace(resident, 16384, 79);
}

// Scalar-vs-burst equivalence on deterministic twin chains; returns false
// (and reports) on any verdict mismatch.
bool CheckChainInvariant(const std::vector<std::string>& stages,
                         nf::Variant variant, const nf::BenchEnv& env,
                         const pktgen::Trace& trace) {
  auto scalar_chain = nf::MakeBenchChain(stages, variant, env, "chain");
  auto burst_chain = nf::MakeBenchChain(stages, variant, env, "chain");
  if (!scalar_chain || !burst_chain) {
    std::fprintf(stderr, "chain construction failed (depth %zu, %s)\n",
                 stages.size(), std::string(nf::VariantName(variant)).c_str());
    return false;
  }
  constexpr u32 kPackets = 4096;
  constexpr u32 kBurst = 32;
  for (u32 base = 0; base + kBurst <= kPackets; base += kBurst) {
    ebpf::XdpAction scalar_verdicts[kBurst];
    ebpf::XdpAction burst_verdicts[kBurst];
    ebpf::XdpContext ctxs[kBurst];
    pktgen::Packet copies[kBurst];
    for (u32 i = 0; i < kBurst; ++i) {
      copies[i] = trace[(base + i) % trace.size()];
      ebpf::XdpContext ctx{copies[i].frame, copies[i].frame + ebpf::kFrameSize,
                           0};
      scalar_verdicts[i] = scalar_chain->Process(ctx);
      ctxs[i] = ebpf::XdpContext{copies[i].frame,
                                 copies[i].frame + ebpf::kFrameSize, 0};
    }
    burst_chain->ProcessBurst(ctxs, kBurst, burst_verdicts);
    for (u32 i = 0; i < kBurst; ++i) {
      if (scalar_verdicts[i] != burst_verdicts[i]) {
        std::fprintf(stderr,
                     "chain invariant violated: depth %zu %s packet %u "
                     "scalar=%d burst=%d\n",
                     stages.size(),
                     std::string(nf::VariantName(variant)).c_str(), base + i,
                     static_cast<int>(scalar_verdicts[i]),
                     static_cast<int>(burst_verdicts[i]));
        return false;
      }
    }
  }
  return true;
}

void PrintStageBreakdown(const nf::ChainExecutor& chain) {
  for (const pktgen::StageStats& s : chain.stage_stats()) {
    const double share =
        s.in > 0 ? static_cast<double>(s.ns) / static_cast<double>(s.in) : 0.0;
    std::printf(
        "     stage %-16s in=%-10llu pass=%-10llu drop=%-8llu tx=%-8llu "
        "ns/pkt=%.1f\n",
        s.name.c_str(), static_cast<unsigned long long>(s.in),
        static_cast<unsigned long long>(s.pass),
        static_cast<unsigned long long>(s.drop),
        static_cast<unsigned long long>(s.tx), share);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (const int code = bench::HandleRegistryArgs(&argc, argv); code >= 0) {
    return code;
  }
  std::vector<std::string> custom_stages;
  if (const int code = HandleStagesArg(&argc, argv, &custom_stages);
      code >= 0) {
    return code;
  }
  bench::JsonReport report("chain", argc, argv);
  bench::PrintHeader(
      "Service chains: throughput vs chain length (tail-call model)");

  const nf::BenchEnv env = nf::MakeDefaultBenchEnv();
  const pktgen::Trace trace = MakeChainTrace(env);
  const nf::Variant kVariants[] = {nf::Variant::kEbpf, nf::Variant::kKernel,
                                   nf::Variant::kEnetstl};

  // Sweep points: the default depth-1..8 alternating roster, or the one
  // chain named on the command line.
  std::vector<std::pair<std::string, std::vector<std::string>>> points;
  if (custom_stages.empty()) {
    for (u32 length = 1; length <= 8; ++length) {
      points.emplace_back(std::to_string(length), ChainStages(length));
    }
  } else {
    std::string label = custom_stages[0];
    for (std::size_t i = 1; i < custom_stages.size(); ++i) {
      label += "," + custom_stages[i];
    }
    std::printf("-- custom chain: %s\n", label.c_str());
    points.emplace_back("custom", custom_stages);
  }

  bench::PrintSweepHeader("chain_depth");
  bench::SweepAccumulator acc;
  for (const auto& [param, stages] : points) {
    double mpps[3] = {0, 0, 0};
    for (int v = 0; v < 3; ++v) {
      if (!ChainSupports(stages, kVariants[v])) {
        std::printf("   (skipping %s: unsupported by a stage)\n",
                    std::string(nf::VariantName(kVariants[v])).c_str());
        continue;
      }
      if (!CheckChainInvariant(stages, kVariants[v], env, trace)) {
        return 1;
      }
      auto chain = nf::MakeBenchChain(stages, kVariants[v], env, "chain");
      if (!chain) {
        std::fprintf(stderr, "chain construction failed (%s)\n",
                     param.c_str());
        return 1;
      }
      mpps[v] = bench::MeasureBurstMpps(*chain, trace, 32);
      report.Add(std::string(nf::VariantName(kVariants[v])), param, mpps[v]);
    }
    bench::PrintSweepRow(param, mpps[0], mpps[1], mpps[2]);
    acc.Add(mpps[0], mpps[1], mpps[2]);
  }
  acc.PrintSummary("chain sweep");

  // Per-stage breakdown of the deepest eNetSTL chain over one measured pass.
  if (custom_stages.empty()) {
    auto chain =
        nf::MakeBenchChain(ChainStages(4), nf::Variant::kEnetstl, env, "chain");
    pktgen::Pipeline::Options opts;
    opts.warmup_packets = 0;
    opts.measure_packets = bench::EnvPackets(100'000);
    opts.burst_size = 32;
    const pktgen::Pipeline pipeline(opts);
    chain->ResetStageStats();
    pipeline.MeasureThroughputBurst(chain->BurstHandler(), trace);
    std::printf("-- per-stage breakdown (depth 4, eNetSTL):\n");
    PrintStageBreakdown(*chain);
  }

  // RSS-sharded deployment: every shard runs its own replica of the depth-4
  // eNetSTL chain (flow-disjoint state, the multi-core model of PR 1).
  if (custom_stages.empty()) {
    pktgen::ShardedPipeline::Options opts;
    opts.num_workers = 4;
    opts.burst_size = 32;
    opts.warmup_packets = 5'000;
    opts.measure_packets = bench::EnvPackets(200'000);
    const pktgen::ShardedPipeline sharded(opts);
    const auto result = sharded.MeasureScaleOut(
        nf::ShardedChainFactory([&env](u32) {
          return std::shared_ptr<nf::ChainExecutor>(
              nf::MakeBenchChain(ChainStages(4), nf::Variant::kEnetstl, env,
                                 "chain"));
        }),
        trace, {.enabled = false});  // static RSS
    std::printf("-- sharded chain (4 workers, depth 4, eNetSTL): %.3f Mpps "
                "aggregate\n",
                result.total.pps / 1e6);
    for (const auto& shard : result.shards) {
      std::printf("   shard cpu%u: %.3f Mpps over %llu packets, %zu stages\n",
                  shard.cpu, shard.stats.pps / 1e6,
                  static_cast<unsigned long long>(shard.stats.packets),
                  shard.stages.size());
    }
    report.Add("enetstl-sharded", "4x4", result.total.pps / 1e6);
  }

  std::printf(
      "-- expectation: throughput decays ~1/depth; burst path verdicts "
      "bit-identical to scalar traversal at every depth\n");
  return 0;
}
