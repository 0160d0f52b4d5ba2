#include "common.h"

#include <unistd.h>

#include <cstdio>

#include "stats.h"

namespace rb {

u64 RssBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  return got == 2 ? resident * static_cast<u64>(sysconf(_SC_PAGESIZE)) : 0;
}

u64 SubSeed(u64 seed, u64 tag) {
  // splitmix64 finalizer over (seed, tag).
  u64 z = seed * 0x9e3779b97f4a7c15ull + tag * 0xbf58476d1ce4e5b9ull +
          0x94d049bb133111ebull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void Result::Mismatch(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "repobench: CORRECTNESS MISMATCH: %s\n", what.c_str());
}

namespace {
volatile u32 g_calib_sink = 0;  // keeps the calibration loop's loads live

// Table sizes (u32 slots) and reference times per load: the loop's median
// on the reference host (4 vCPU Xeon, 2 MiB L2 per core).
constexpr u32 kCacheSlots = 1u << 18;  // 1 MiB
constexpr u32 kSharedSlots = 1u << 24;   // 64 MiB
constexpr double kCacheRefNs = 1.3;
constexpr double kSharedRefNs = 17.0;
}  // namespace

Calibrator::Calibrator(MemRegime regime)
    : regime_(regime),
      table_(regime == MemRegime::kCache ? kCacheSlots : kSharedSlots, 1),
      ref_ns_(regime == MemRegime::kCache ? kCacheRefNs : kSharedRefNs) {}

double Calibrator::NsPerLoad() {
  constexpr u32 kRounds = 25000;
  const u64 mask = table_.size() - 1;
  const u32* table = table_.data();
  u64 a = 1;
  u64 b = 2;
  u64 c = 3;
  u64 d = 4;
  u32 acc = 0;
  if (regime_ == MemRegime::kCache) {
    for (u64 i = 0; i <= mask; i += 16) {  // one load per 64-byte line
      acc += table[i];
    }
  }
  const u64 t0 = NowNs();
  for (u32 i = 0; i < kRounds; ++i) {
    a = a * 6364136223846793005ull + 1;
    b = b * 6364136223846793005ull + 3;
    c = c * 6364136223846793005ull + 5;
    d = d * 6364136223846793005ull + 7;
    acc += table[(a >> 40) & mask] + table[(b >> 40) & mask] +
           table[(c >> 40) & mask] + table[(d >> 40) & mask];
  }
  const u64 t1 = NowNs();
  g_calib_sink = acc;
  return static_cast<double>(t1 - t0) / (4.0 * kRounds);
}

void EndToEnd::AddRep(double mpps, std::vector<u32> burst_ns, double calib,
                      double scale) {
  std::sort(burst_ns.begin(), burst_ns.end());
  const double p50 = PercentileSorted(burst_ns, 50.0);
  const double p99 = PercentileSorted(burst_ns, 99.0);
  raw_mpps.push_back(mpps);
  raw_burst_p50.push_back(p50);
  raw_burst_p99.push_back(p99);
  calib_ns.push_back(calib);
  rep_mpps.push_back(mpps * scale);
  rep_burst_p50.push_back(p50 / scale);
  rep_burst_p99.push_back(p99 / scale);
  burst_samples += burst_ns.size();
}

// Burst percentiles are exact within each rep; the reported value is a rank
// over reps (see kTimeRank), never a whole-run percentile, which follows the
// host's worst interference episode.
void EmitEndToEnd(const EndToEnd& e2e, double ref_ns, Result& out) {
  std::printf("uncalibrated: mpps %.4f burst_p50_us %.4f burst_p99_us %.4f "
              "(same ranks over reps); calibration median %.4f ns/load, "
              "reference %.1f\n",
              Percentile(e2e.raw_mpps, kRateRank),
              Percentile(e2e.raw_burst_p50, kTimeRank) / 1e3,
              Percentile(e2e.raw_burst_p99, kTimeRank) / 1e3,
              Median(e2e.calib_ns), ref_ns);
  out.Add("mpps", Percentile(e2e.rep_mpps, kRateRank), "Mpps", "higher",
          e2e.rep_mpps.size());
  out.Add("burst_p50_us", Percentile(e2e.rep_burst_p50, kTimeRank) / 1e3, "us",
          "lower", e2e.burst_samples);
  out.Add("burst_p99_us", Percentile(e2e.rep_burst_p99, kTimeRank) / 1e3, "us",
          "lower", e2e.burst_samples);
  out.Add("setup_s", Median(e2e.setup_s), "s", "lower", e2e.setup_s.size());
  out.Add("mem_mb", e2e.mem_mb, "MB", "lower");
}

void EmitLedger(const Ledger& l, Result& out) {
  for (const auto& [stage, ns] : l.stages) {
    std::printf("ledger: stage %-24s %10.3f ns/pkt standalone\n",
                stage.c_str(), ns);
  }
  out.Add("pktgen.dispatch_ns_per_pkt", l.dispatch_ns_per_pkt, "ns", "lower");
  out.Add("pktgen.scaleout.busy_skew", l.busy_skew, "ratio", "lower");
  out.Add("pktgen.scaleout.slots_moved", l.slots_moved, "count", "lower");
  out.Add("pktgen.scaleout.handoffs", l.handoffs, "count", "lower");
  out.Add("pktgen.scaleout.handoff_retries", l.handoff_retries, "count",
          "lower");
  out.Add("core.hash_ns_per_key", l.hash_ns_per_key, "ns", "lower");
  out.Add("core.multihash_ns_per_key", l.multihash_ns_per_key, "ns", "lower");
  out.Add("core.arena_alloc_free_ns", l.arena_alloc_free_ns, "ns", "lower");
  out.Add("ebpf.tail_call_ns_per_stage", l.tail_call_ns_per_stage, "ns",
          "lower");
  out.Add("nf.stages_ns_per_pkt", l.stages_ns_per_pkt, "ns", "lower");
  out.Add("nf.chain_overhead_ns_per_pkt", l.chain_overhead_ns_per_pkt, "ns",
          "lower");
  out.Add("nf.fused_burst_frac", l.fused_burst_frac, "ratio", "higher");
  out.Add("nf.demotions", l.demotions, "count", "lower");
  out.Add("nf.conntrack.burst_ns_per_pkt", l.ct_burst_ns_per_pkt, "ns",
          "lower");
  out.Add("nf.conntrack.advance_ns_p99", l.ct_advance_ns_p99, "ns", "lower",
          l.advance_samples);
  out.Add("nf.conntrack.hit_frac", l.ct_hit_frac, "ratio", "higher");
  out.Add("nf.conntrack.created", l.ct_created, "count", "lower");
  out.Add("nf.conntrack.torn_down", l.ct_torn_down, "count", "lower");
  out.Add("nf.conntrack.lru_evictions", l.ct_lru_evictions, "count", "lower");
  out.Add("nf.conntrack.refused", l.ct_refused, "count", "lower");
  out.Add("nf.reconfig.swap_p50_us", l.swap_p50_us, "us", "lower",
          l.swap_samples);
  out.Add("nf.reconfig.swap_p99_us", l.swap_p99_us, "us", "lower",
          l.swap_samples);
  out.Add("nf.reconfig.rollbacks", l.swap_rollbacks, "count", "lower");
  out.Add("bench.closure_ratio", l.closure_ratio, "ratio", "higher");
  out.Add("bench.trace_overhead_frac", l.trace_overhead_frac, "ratio", "lower");
}

}  // namespace rb
