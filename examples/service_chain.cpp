// Service chain: the tail-call execution model end to end.
//
//   1. Look NFs up in the central registry (--list in any bench prints the
//      catalogue) and compose them into a ChainExecutor: each stage becomes
//      an XDP program, linked through a prog-array map with bpf_tail_call.
//   2. Drive packets through the chain — scalar (one tail-call walk per
//      packet) and burst (the chain's fused program, folded at Load()) give
//      bit-identical verdicts.
//   3. Inspect the per-stage verdict histogram.
//   4. Observe the kernel's MAX_TAIL_CALL_CNT: a 33-stage chain loads, a
//      34-stage chain is rejected by the verifier.
//
// Build & run:  ./build/examples/service_chain
#include <cstdio>
#include <memory>

#include "apps/app_chains.h"
#include "nf/chain.h"
#include "nf/nf_registry.h"
#include "pktgen/flowgen.h"

int main() {
  using ebpf::u32;
  ebpf::SetCurrentCpu(0);
  apps::RegisterAppNfs();

  // 1. A three-stage membership/sketch chain from registry NFs, each primed
  //    with its bench resident state.
  const nf::BenchEnv env = nf::MakeDefaultBenchEnv();
  auto chain = nf::MakeBenchChain(
      {"cuckoo-filter", "vbf-membership", "count-min-sketch"},
      nf::Variant::kEnetstl, env, "example-chain");
  if (chain == nullptr) {
    std::fprintf(stderr, "chain failed to load\n");
    return 1;
  }
  std::printf("loaded '%s': %u stages, variant %s\n",
              std::string(chain->name()).c_str(), chain->depth(),
              std::string(nf::VariantName(chain->variant())).c_str());

  // 2. Scalar vs burst on the same 256 packets.
  constexpr u32 kCount = 256;
  u32 mismatches = 0;
  for (u32 base = 0; base < kCount; base += 64) {
    pktgen::Packet scalar_pkts[64];
    pktgen::Packet burst_pkts[64];
    ebpf::XdpContext ctxs[64];
    ebpf::XdpAction scalar_verdicts[64];
    ebpf::XdpAction burst_verdicts[64];
    for (u32 i = 0; i < 64; ++i) {
      scalar_pkts[i] = env.uniform[(base + i) % env.uniform.size()];
      burst_pkts[i] = scalar_pkts[i];
      ebpf::XdpContext ctx{scalar_pkts[i].frame,
                           scalar_pkts[i].frame + ebpf::kFrameSize, 0};
      scalar_verdicts[i] = chain->Process(ctx);  // one tail-call walk
      ctxs[i] = ebpf::XdpContext{burst_pkts[i].frame,
                                 burst_pkts[i].frame + ebpf::kFrameSize, 0};
    }
    chain->ProcessBurst(ctxs, 64, burst_verdicts);
    for (u32 i = 0; i < 64; ++i) {
      mismatches += scalar_verdicts[i] != burst_verdicts[i];
    }
  }
  std::printf("scalar vs burst over %u packets: %u mismatches (%s)\n", kCount,
              mismatches, mismatches == 0 ? "bit-identical" : "BUG");

  // 3. Per-stage accounting: where did the packets go?
  for (const pktgen::StageStats& s : chain->stage_stats()) {
    std::printf(
        "  stage %-18s in=%-6llu pass=%-6llu drop=%-6llu tx=%llu\n",
        s.name.c_str(), static_cast<unsigned long long>(s.in),
        static_cast<unsigned long long>(s.pass),
        static_cast<unsigned long long>(s.drop),
        static_cast<unsigned long long>(s.tx));
  }

  // 4. The depth limit, as the verifier sees it.
  std::vector<std::string> deep(ebpf::kMaxTailCallChain, "count-min-sketch");
  std::printf("33-stage chain: %s\n",
              nf::MakeBenchChain(deep, nf::Variant::kEnetstl, env)
                  ? "loads (at MAX_TAIL_CALL_CNT)"
                  : "rejected");
  deep.push_back("count-min-sketch");
  std::printf("34-stage chain: %s\n",
              nf::MakeBenchChain(deep, nf::Variant::kEnetstl, env)
                  ? "loads (BUG)"
                  : "rejected by the verifier");

  // Bonus: the packaged composites are registry entries too.
  auto lb_chain =
      nf::NfRegistry::Global().Create("lb-chain", nf::Variant::kEnetstl);
  std::printf("registry composite '%s' constructed: %s\n", "lb-chain",
              lb_chain != nullptr ? "yes" : "no");
  return mismatches == 0 ? 0 : 1;
}
