// Per-layer probes shared by the workloads. Each probe calls one layer's
// public functions from the benchmark's own code, on the workload's own keys
// or trace, and records one span per rep when a recorder is given.
#ifndef REPOBENCH_LEDGER_H_
#define REPOBENCH_LEDGER_H_

#include <memory>
#include <vector>

#include "common.h"
#include "nf/conntrack.h"
#include "pktgen/packet.h"
#include "stats.h"

namespace rb {

// Runs rep() until `budget_s` has elapsed and at least `min_reps` reps ran.
// rep() returns the units of work it did; the result holds ns per unit of
// every rep. One span per rep is recorded under `name` when spans != null.
template <typename Fn>
std::vector<double> TimeReps(double budget_s, u32 min_reps,
                             SpanRecorder* spans, const char* name, Fn&& rep) {
  const u16 id = spans != nullptr ? spans->Intern(name) : 0;
  std::vector<double> out;
  const u64 deadline = NowNs() + static_cast<u64>(budget_s * 1e9);
  while (out.size() < min_reps || NowNs() < deadline) {
    const u32 span = spans != nullptr ? spans->Begin(id, 0) : 0;
    const u64 t0 = NowNs();
    const double units = rep();
    const u64 t1 = NowNs();
    if (spans != nullptr) {
      spans->End(span);
    }
    out.push_back(static_cast<double>(t1 - t0) / units);
  }
  return out;
}

// The empty burst handler the dispatch figure is measured with: writes
// XDP_PASS for every packet. Called through a volatile pointer so it stays an
// indirect call, like the NF entry points it stands in for.
extern void (*volatile g_empty_burst)(ebpf::XdpContext*, u32, ebpf::XdpAction*);

// 5-tuples of the trace's frames, in trace order.
std::vector<ebpf::FiveTuple> KeysOf(const pktgen::Trace& trace);

// core: HashPrefetchBatch over the keys in bursts of kBurst; median ns/key.
double HashNsPerKey(const std::vector<ebpf::FiveTuple>& keys, double budget_s,
                    SpanRecorder* spans);
// core: MultiHashPrefetchBatch (8 rows, the VBF shape); median ns/key.
double MultiHashNsPerKey(const std::vector<ebpf::FiveTuple>& keys,
                         double budget_s, SpanRecorder* spans);
// core: SlabArena free+allocate pair of a 128-byte flow slot with
// `population` slots live; median ns per pair.
double ArenaAllocFreeNs(u32 population, u64 seed, double budget_s,
                        SpanRecorder* spans);
// ebpf: scalar tail-call walk of PassthroughTap chains of depth 8 and 1 over
// the trace; (depth-8 - depth-1) / 7 ns per packet, medians of reps.
double TailCallNsPerStage(const pktgen::Trace& trace, double budget_s,
                          SpanRecorder* spans);

// nf.conntrack control for workloads that bypass conntrack: an eNetSTL kTrack
// tracker fed the workload's trace in bursts, its clock advanced one wheel
// slot per burst. Fills the ct_* fields of *ledger.
void ConntrackProbe(const pktgen::Trace& trace, double budget_s,
                    SpanRecorder* spans, Ledger* ledger);

// nf.reconfig for the conntrack workloads: moves `ct` into a one-stage chain
// and hot-swaps it `swaps` times through ChainReconfig::SwapNfWith with a
// fresh engine of the same configuration, warmed by state transfer. Appends
// the request-to-commit time of every call to *swap_ns and returns the number
// of swaps that failed or lost flows.
u64 StateTransferSwapProbe(std::unique_ptr<nf::ConntrackEnetstl> ct, u32 swaps,
                           std::vector<u32>* swap_ns);

// Mean of a sample vector (ns) divided by `per`.
double MeanPer(const std::vector<u32>& samples, double per);

}  // namespace rb

#endif  // REPOBENCH_LEDGER_H_
