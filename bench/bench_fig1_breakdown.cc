// Figure 1: fraction of NF execution time spent in the shared
// performance-critical behaviors (O1..O6, paper range 20.6%-65.4%; O5,
// non-contiguous memory, is not shown because eBPF cannot run it at all).
//
// Method: for each observation's representative NF (pure-eBPF variant),
// measure the full per-packet time T, then micro-measure the isolated
// shared-behavior operation cost t_op at the per-packet multiplicity the NF
// uses; the share is t_op / T.
#include <chrono>

#include "bench/bench_util.h"
#include "core/bits.h"
#include "core/compare.h"
#include "core/hash.h"
#include "ebpf/helper.h"
#include "ebpf/linklist.h"
#include "nf/cms.h"
#include "nf/cuckoo_switch.h"
#include "nf/eiffel.h"
#include "nf/nitro.h"
#include "nf/timewheel.h"

namespace {

using bench::u32;
using bench::u64;
using Clock = std::chrono::steady_clock;

// Nanoseconds per iteration of `fn` over `iters` runs.
template <typename Fn>
double NsPerOp(u64 iters, Fn fn) {
  const auto start = Clock::now();
  for (u64 i = 0; i < iters; ++i) {
    fn(i);
  }
  const auto end = Clock::now();
  return std::chrono::duration_cast<std::chrono::duration<double, std::nano>>(
             end - start)
             .count() /
         static_cast<double>(iters);
}

double FullNsPerPacket(nf::NetworkFunction& nf, const pktgen::Trace& trace) {
  return bench::MakePipeline()
      .MeasureThroughput(nf.Handler(), trace)
      .ns_per_packet;
}

void PrintRow(const char* obs, const char* nf, double op_ns, double total_ns) {
  std::printf("%-42s %-16s %10.1f %10.1f %9.1f%%\n", obs, nf, op_ns, total_ns,
              op_ns / total_ns * 100.0);
}

}  // namespace

int main(int argc, char** argv) {
  if (const int code = bench::HandleRegistryArgs(&argc, argv); code >= 0) {
    return code;
  }
  bench::PrintHeader(
      "Figure 1: share of execution time in the shared behaviors (eBPF "
      "variants)");
  std::printf("%-42s %-16s %10s %10s %10s\n", "observation", "nf", "op(ns)",
              "total(ns)", "share");
  ebpf::helpers::SeedPrandom(0x1111);
  const auto flows = pktgen::MakeFlowPopulation(4096, 81);
  const auto zipf = pktgen::MakeZipfTrace(flows, 16384, 1.1, 82);
  constexpr u64 kIters = 2'000'000;

  {  // O1: bit instructions (Eiffel, software FFS x levels per dequeue).
    nf::EiffelConfig config;
    config.levels = 3;
    nf::EiffelEbpf q(config);
    const auto trace =
        pktgen::MakeQueueingTrace(flows, 16384, q.num_priorities(), 83);
    const double total = FullNsPerPacket(q, trace);
    // The micro op is the loop-FFS the eBPF variant actually runs, on words
    // whose first set bit is uniform over [0, 64) as queue occupancy makes it.
    pktgen::Rng rng(84);
    volatile u32 sink = 0;
    std::vector<u64> words(1024);
    for (auto& w : words) {
      w = ~0ull << rng.NextBounded(64);
    }
    const double ffs_ns = NsPerOp(kIters, [&](u64 i) {
      sink = sink + enetstl::SoftFfsLoop64(words[i & 1023]);
    });
    // Dequeue walks `levels` FFS queries; the trace is half dequeues.
    PrintRow("O1 leveraging hardware bit instructions", "eiffel-cffs",
             ffs_ns * config.levels * 0.5, total);
  }

  {  // O2: multiple hash functions (count-min). Differential measurement:
     // the same NF with 8 rows vs 1 row isolates the per-row hash+count
     // work; scaling 7 rows' delta to all 8 gives the behavior's share.
    nf::CmsConfig config8;
    config8.rows = 8;
    config8.cols = 4096;
    nf::CmsEbpf cms8(config8);
    nf::CmsConfig config1 = config8;
    config1.rows = 1;
    nf::CmsEbpf cms1(config1);
    const double total = FullNsPerPacket(cms8, zipf);
    const double reduced = FullNsPerPacket(cms1, zipf);
    const double op_ns = (total - reduced) * 8.0 / 7.0;
    PrintRow("O2 using multiple hash functions", "count-min", op_ns, total);
  }

  {  // O3: fundamental data structures (time wheel, BPF list push+pop).
    nf::TimeWheelConfig config;
    config.granularity_ns = 1024;
    nf::TimeWheelEbpf tw(config);
    const auto trace = pktgen::MakeQueueingTrace(
        flows, 16384, nf::kTvrSize * (nf::kTvnSize - 1) / 2, 85);
    const double total = FullNsPerPacket(tw, trace);
    ebpf::BpfObjPool<nf::TwElem> pool(1024);
    ebpf::BpfSpinLock lock;
    ebpf::BpfList<nf::TwElem> list;
    nf::TwElem elem{};
    const double list_ns = NsPerOp(kIters, [&](u64 i) {
      list.PushBack(pool, lock, elem);
      nf::TwElem out;
      list.PopFront(pool, lock, &out);
    });
    // One list operation (push or pop) per packet on average.
    PrintRow("O3 building on fundamental data structures", "timewheel",
             list_ns / 2.0, total);
  }

  {  // O4: random-number updating (NitroSketch, 8 helper calls per packet).
    nf::NitroConfig config;
    config.rows = 8;
    config.update_prob = 1.0 / 16;
    nf::NitroEbpf nitro(config);
    const double total = FullNsPerPacket(nitro, zipf);
    volatile u32 sink = 0;
    const double rand_ns = NsPerOp(kIters, [&](u64) {
      sink = sink + ebpf::helpers::BpfGetPrandomU32();
    });
    PrintRow("O4 updating based on a random number", "nitro-sketch",
             rand_ns * config.rows, total);
  }

  {  // O6: multiple buckets in contiguous memory (CuckooSwitch compare).
    nf::CuckooSwitchConfig config;
    config.num_buckets = 1024;
    nf::CuckooSwitchEbpf sw(config);
    std::vector<ebpf::FiveTuple> resident;
    for (const auto& flow : flows) {
      if (resident.size() >= sw.capacity() * 95 / 100) {
        break;
      }
      if (sw.Insert(flow, 1)) {
        resident.push_back(flow);
      }
    }
    const auto trace = pktgen::MakeUniformTrace(resident, 16384, 86);
    const double total = FullNsPerPacket(sw, trace);
    // Scalar scan of one 8-slot bucket of 16-byte keys, twice per lookup.
    alignas(16) ebpf::u8 keys[8 * 16];
    pktgen::Rng rng(87);
    for (auto& b : keys) {
      b = static_cast<ebpf::u8>(rng.NextU32());
    }
    ebpf::u8 probe[16] = {};
    volatile ebpf::s32 sink = 0;
    const double scan_ns = NsPerOp(kIters, [&](u64 i) {
      probe[0] = static_cast<ebpf::u8>(i);
      sink = sink + enetstl::scalar::FindKey16(keys, 8, probe);
    });
    PrintRow("O6 arranging multiple buckets contiguously", "cuckoo-switch",
             scan_ns * 2.0, total);
  }

  std::printf(
      "-- O5 (non-contiguous memory) is absent by construction: eBPF cannot "
      "run it (P1). Paper range for shares: 20.6%% - 65.4%%.\n");
  return 0;
}
