// Shared types of the repository benchmark: run options, the result every
// workload fills, the clocks, and the two metric sets (end-to-end and
// per-layer) that every workload reports in the same order.
#ifndef REPOBENCH_COMMON_H_
#define REPOBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "ebpf/types.h"

namespace rb {

using ebpf::u16;
using ebpf::u32;
using ebpf::u64;
using ebpf::u8;

// Every workload drives the datapath in bursts of this many 64-byte frames.
inline constexpr u32 kBurst = 32;

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  // traced run only; empty = do not write spans
};

inline u64 NowNs() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now()
                                  .time_since_epoch())
                              .count());
}

// Resident set size of this process in bytes (/proc/self/statm).
u64 RssBytes();

// Derives an independent 64-bit sub-seed for input `tag` from the run seed,
// so every generated input depends on --seed and nothing else.
u64 SubSeed(u64 seed, u64 tag);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string better;  // "higher" or "lower"
  u64 samples = 0;     // samples behind a percentile or median; 0 = n/a
};

// What one run reports. `attempted` counts packets offered plus control
// operations requested; `failed` counts aborted verdicts, refused conntrack
// inserts, rolled-back swaps and scale-out packets left unserved.
struct Result {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& better, u64 samples = 0) {
    metrics.push_back(Metric{name, value, unit, better, samples});
  }
  // Records a correctness mismatch; the run then exits nonzero.
  void Mismatch(const std::string& what);
};

// Rank of the reported value among a run's reps: the first quartile of
// rates and the third quartile of times, the side the host's interference
// pushes toward. The per-rep rate on a shared host is bimodal (neighbours
// contend for the core and its caches, switching every few seconds); the
// median over reps then flips between the two modes from run to run, while
// the contended mode shows up in every run and the quartile reports it.
inline constexpr double kRateRank = 25.0;
inline constexpr double kTimeRank = 75.0;

// Host-speed calibration. The host's other tenants slow the workloads by up
// to 1.6x in phases of seconds to minutes (see README.md). Before every rep
// the benchmark times a fixed loop of its own, four independent multiply
// streams loading at random from a table, and scales the rep's figures by
// the loop's time over its reference time: rates up and times down when the
// host is slow. The reported figures are therefore host-normalized.
//
// The table is sized to the memory regime the workload's datapath runs in,
// since the neighbours slow hits in a core's private L2 and accesses beyond
// it by different factors. kCache: 1 MiB, read once untimed before the timed
// loads so that they hit this core's L2 whatever the workload left there.
// kShared: 64 MiB, past any private cache, so the loads go to the shared
// last-level cache and DRAM whatever the workload left there. Either way the
// loop's time does not depend on the workload's own footprint; README.md
// has the A/B run that checks it.
enum class MemRegime { kCache, kShared };

class Calibrator {
 public:
  explicit Calibrator(MemRegime regime);
  // Time per load (ns) of one timed pass.
  double NsPerLoad();
  // Factor a rep's rate is multiplied by, and its times divided by.
  double Scale(double ns_per_load) const { return ns_per_load / ref_ns_; }
  double ref_ns() const { return ref_ns_; }

 private:
  MemRegime regime_;
  std::vector<u32> table_;
  double ref_ns_;
};

// End-to-end metrics of an untraced run (BENCHMARK.json "end_to_end").
struct EndToEnd {
  std::vector<double> rep_mpps;       // one closed-loop rate per rep
  std::vector<double> rep_burst_p50;  // each rep's exact burst-time p50 (ns)
  std::vector<double> rep_burst_p99;  // each rep's exact burst-time p99 (ns)
  u64 burst_samples = 0;              // bursts timed over all reps
  std::vector<double> setup_s;        // one per set-up repetition
  double mem_mb = 0.0;

  // The same figures before calibration, and each rep's calibration.
  std::vector<double> raw_mpps;
  std::vector<double> raw_burst_p50;
  std::vector<double> raw_burst_p99;
  std::vector<double> calib_ns;

  // Records one rep: its rate, its burst service times (ns), and the
  // calibration measured before it.
  void AddRep(double mpps, std::vector<u32> burst_ns, double calib_ns,
              double scale);
};

// Per-layer ledger of a traced run (BENCHMARK.json "per_layer"). Every
// workload fills every field: layers its datapath bypasses are timed on the
// workload's own keys and trace as a control (see README.md).
struct Ledger {
  double dispatch_ns_per_pkt = 0.0;
  double busy_skew = 1.0;  // single-core workloads run one shard
  double slots_moved = 0.0;
  double handoffs = 0.0;
  double handoff_retries = 0.0;
  double hash_ns_per_key = 0.0;
  double multihash_ns_per_key = 0.0;
  double arena_alloc_free_ns = 0.0;
  double tail_call_ns_per_stage = 0.0;
  double stages_ns_per_pkt = 0.0;
  double chain_overhead_ns_per_pkt = 0.0;
  double fused_burst_frac = 0.0;
  double demotions = 0.0;
  double ct_burst_ns_per_pkt = 0.0;
  double ct_advance_ns_p99 = 0.0;
  double ct_hit_frac = 0.0;
  double ct_created = 0.0;
  double ct_torn_down = 0.0;
  double ct_lru_evictions = 0.0;
  double ct_refused = 0.0;
  double swap_p50_us = 0.0;
  double swap_p99_us = 0.0;
  double swap_rollbacks = 0.0;
  double closure_ratio = 0.0;
  double trace_overhead_frac = 0.0;
  // Sample counts behind the percentiles above.
  u64 advance_samples = 0;
  u64 swap_samples = 0;
  // Per-stage standalone ns/packet, printed in the human-readable ledger.
  std::vector<std::pair<std::string, double>> stages;
};

// Prints the uncalibrated figures as a diagnostic line and adds the
// end-to-end metrics; `ref_ns` is the calibration's reference time.
void EmitEndToEnd(const EndToEnd& e2e, double ref_ns, Result& out);
void EmitLedger(const Ledger& ledger, Result& out);

}  // namespace rb

#endif  // REPOBENCH_COMMON_H_
