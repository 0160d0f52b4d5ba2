// Single-core XDP-like measurement pipeline.
//
// Mirrors the paper's methodology: traffic is replayed against an NF attached
// to the (simulated) XDP hook on one CPU; throughput mode reports the
// packets-per-second rate over a measured window after warmup, latency mode
// timestamps each packet individually and reports percentiles.
//
// Two dispatch modes:
//  * per-packet — one handler call per packet, the paper's baseline shape;
//  * burst      — the handler receives up to Options::burst_size contexts at
//                 once and fills one verdict per packet, the XDP native bulk
//                 path (and what CuckooSwitch/Katran-style batched lookups
//                 with grouped prefetching need to pay off).
//
// Handlers are passed as non-owning FunctionRefs so the harness's dispatch
// cost is a single indirect call — std::function overhead would otherwise be
// attributed to the NF under test.
#ifndef ENETSTL_PKTGEN_PIPELINE_H_
#define ENETSTL_PKTGEN_PIPELINE_H_

#include <string>
#include <vector>

#include "ebpf/program.h"
#include "pktgen/function_ref.h"
#include "pktgen/packet.h"

namespace pktgen {

// A packet handler under test: either an ebpf::XdpProgram or any callable
// with the same shape (kernel-native baselines are plain callables — they do
// not pass through the verifier). Non-owning: the callable must outlive the
// measurement call it is passed to.
using PacketHandler = FunctionRef<ebpf::XdpAction(ebpf::XdpContext&)>;

// A burst handler processes ctxs[0..count) in one call and writes exactly one
// verdict per packet into verdicts[0..count). count never exceeds
// kMaxBurstSize.
using PacketBurstHandler =
    FunctionRef<void(ebpf::XdpContext* ctxs, u32 count,
                     ebpf::XdpAction* verdicts)>;

// Upper bound on Options::burst_size; bounds the pipeline's per-burst stack
// scratch (contexts + verdicts) and the NFs' batched-lookup scratch arrays.
inline constexpr u32 kMaxBurstSize = 64;

struct ThroughputStats {
  u64 packets = 0;
  double seconds = 0.0;
  double pps = 0.0;          // packets per second
  double ns_per_packet = 0.0;
  u64 dropped = 0;           // XDP_DROP verdicts
  u64 passed = 0;            // XDP_PASS verdicts
  u64 aborted = 0;           // XDP_ABORTED verdicts
  // Packets processed in degraded mode: on a sharded run, packets a surviving
  // worker served from indirection slots a failed shard donated to it.
  u64 degraded = 0;

  void AccumulateVerdict(ebpf::XdpAction action) {
    switch (action) {
      case ebpf::XdpAction::kDrop:
        ++dropped;
        break;
      case ebpf::XdpAction::kAborted:
        ++aborted;
        break;
      default:
        ++passed;
        break;
    }
  }
};

// Per-stage verdict and time counters of a multi-stage program (an NF
// chain). The chain executor keeps one per stage; a shard program exports
// them through its finish hook, and MergeStageBreakdowns sums them by name.
struct StageStats {
  std::string name;
  u64 in = 0;  // packets entering the stage
  // Verdict histogram; `pass` is also the packets-out count (survivors).
  u64 pass = 0;
  u64 drop = 0;
  u64 tx = 0;
  u64 redirect = 0;
  u64 aborted = 0;
  // Stage time, accumulated on the burst path only (per-packet timing would
  // distort the scalar latency measurements).
  u64 ns = 0;

  u64 out() const { return pass; }

  void Count(ebpf::XdpAction action) {
    switch (action) {
      case ebpf::XdpAction::kPass:
        ++pass;
        break;
      case ebpf::XdpAction::kDrop:
        ++drop;
        break;
      case ebpf::XdpAction::kTx:
        ++tx;
        break;
      case ebpf::XdpAction::kRedirect:
        ++redirect;
        break;
      case ebpf::XdpAction::kAborted:
        ++aborted;
        break;
    }
  }
};

struct LatencyStats {
  u64 packets = 0;
  double p50_ns = 0.0;
  double p90_ns = 0.0;
  double p99_ns = 0.0;
  double mean_ns = 0.0;
  double max_ns = 0.0;
};

class Pipeline {
 public:
  struct Options {
    u64 warmup_packets = 50'000;
    u64 measure_packets = 1'000'000;
    u32 cpu = 0;
    // Packets handed to the handler per call in burst mode; clamped to
    // [1, kMaxBurstSize]. Per-packet mode ignores it.
    u32 burst_size = 32;
  };

  Pipeline() : options_{} {}
  explicit Pipeline(const Options& options) : options_(options) {}

  // Replays the trace (wrapping around) through the handler and measures the
  // aggregate packet rate, one handler call per packet.
  ThroughputStats MeasureThroughput(PacketHandler handler,
                                    const Trace& trace) const;

  // Burst mode: replays the trace in bursts of Options::burst_size. Exactly
  // Options::measure_packets packets are measured (the final burst is
  // truncated when measure_packets is not a multiple of the burst size).
  ThroughputStats MeasureThroughputBurst(PacketBurstHandler handler,
                                         const Trace& trace) const;

  // Times each packet individually (low-offered-load latency measurement).
  LatencyStats MeasureLatency(PacketHandler handler, const Trace& trace,
                              u64 packets) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

// Convenience: runs every packet of the trace once through the handler
// without timing (functional tests / state priming).
void ReplayOnce(PacketHandler handler, const Trace& trace);

}  // namespace pktgen

#endif  // ENETSTL_PKTGEN_PIPELINE_H_
