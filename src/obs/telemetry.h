// Telemetry plane over the simulated eBPF environment.
//
// Production NF deployments cannot measure themselves from the outside the
// way the paper's benches do; they need in-band observability. This module
// provides it with the same mechanisms a real eBPF service chain would use:
//
//  * Per-scope log2 latency histograms in a BPF percpu-array map — each
//    (chain stage, shard, app) registers a scope id and the hot path updates
//    only the current CPU's slot, so recording never contends across cores.
//  * A 1/N event sampler feeding a BPF ring buffer (ebpf::RingbufMap) with
//    fixed-size ObsEvent records via bpf_ringbuf_reserve/submit — the
//    kernel→userspace event stream. The countdown lives in thread-local
//    state: the common (unsampled) packet pays one relaxed load, one
//    decrement, and one branch; nothing else.
//  * A compile-out path: when the ENETSTL_OBS option is OFF, kCompiledIn is
//    false and every hot-path entry point `if constexpr`-folds to nothing —
//    zero instructions, zero manifest changes, verdicts bit-identical to a
//    build that never heard of telemetry.
//
// Scope registration, enable/disable, and snapshots are cold control-plane
// calls (mutex-protected); Record*/ShouldSample are the only datapath APIs.
#ifndef ENETSTL_OBS_TELEMETRY_H_
#define ENETSTL_OBS_TELEMETRY_H_

#include <atomic>
#include <bit>
#include <mutex>
#include <string>
#include <vector>

#include "ebpf/helper.h"
#include "ebpf/maps.h"
#include "ebpf/program.h"
#include "ebpf/ringbuf.h"
#include "ebpf/types.h"

namespace obs {

using ebpf::u16;
using ebpf::u32;
using ebpf::u64;

#if defined(ENETSTL_OBS)
inline constexpr bool kCompiledIn = true;
#else
inline constexpr bool kCompiledIn = false;
#endif

inline constexpr u32 kMaxScopes = 64;
inline constexpr u16 kInvalidScope = 0xffff;

// Log2 latency histogram, the classic BPF tracing shape (cheap to update,
// resolution proportional to magnitude). Bucket 0 counts 0 ns; bucket b>=1
// counts [2^(b-1), 2^b) ns.
struct LatencyHist {
  static constexpr u32 kBuckets = 48;
  u64 counts[kBuckets] = {};
  u64 total_ns = 0;
  u64 samples = 0;

  // Records `weight` samples of `ns` each.
  void Add(u64 ns, u64 weight = 1);
};

inline u32 Log2Bucket(u64 ns) {
  const u32 w = static_cast<u32>(std::bit_width(ns));
  return w < LatencyHist::kBuckets ? w : LatencyHist::kBuckets - 1;
}

inline void LatencyHist::Add(u64 ns, u64 weight) {
  counts[Log2Bucket(ns)] += weight;
  total_ns += ns * weight;
  samples += weight;
}

// Fixed-size record pushed through the ring buffer for each sampled event.
struct ObsEvent {
  static constexpr u16 kScalar = 0;   // individually timed packet
  static constexpr u16 kBurst = 1;    // burst-average attributed packet
  static constexpr u16 kControl = 2;  // control-plane transition (not a pkt)

  u16 scope = kInvalidScope;
  u16 kind = kScalar;
  u32 flow = 0;  // flow id (src ip in the packet workloads); 0 = unknown.
                 // For kControl events this carries the transition code
                 // instead (e.g. a reconfiguration swap commit).
  u64 latency_ns = 0;
  u64 seq = 0;  // per-producer-thread sequence number
};
static_assert(sizeof(ObsEvent) == 24, "ObsEvent is a flat 24-byte record");

// Flow id used for event records and top-K estimation: the source IP, the
// same identifier HeavyKeeper tracks. Called only on sampled packets.
inline u32 FlowOf(const ebpf::XdpContext& ctx) {
  ebpf::FiveTuple tuple;
  return ebpf::ParseFiveTuple(ctx, &tuple) ? tuple.src_ip : 0;
}

class Telemetry {
 public:
  // Process-wide instance; all emission points and the exporter share it.
  static Telemetry& Global();

  Telemetry();
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  // --- Control plane (cold; mutex-protected) ---

  // Returns a stable id for `name`, registering it on first use. Returns
  // kInvalidScope when the scope table is full or telemetry is compiled out.
  u16 RegisterScope(const std::string& name);
  // New names RegisterScope turned away because the table was full.
  u64 scopes_refused() const {
    std::lock_guard<std::mutex> lock(mu_);
    return scopes_refused_;
  }
  std::string ScopeName(u16 id) const;
  std::vector<std::string> ScopeNames() const;

  // Turns sampling on at rate 1/every (every >= 1; clamped to 1 if 0).
  void Enable(u32 sample_every);
  void Disable();
  // Clears histograms and the per-scope state; the ring is left as-is (its
  // consumer owns draining).
  void ResetCounts();

  bool enabled() const {
    if constexpr (!kCompiledIn) {
      return false;
    }
    return enabled_.load(std::memory_order_relaxed);
  }
  u32 sample_every() const {
    return sample_every_.load(std::memory_order_relaxed);
  }

  // --- Datapath ---

  // True for 1 in every `sample_every` calls (per thread). The unsampled
  // path is a relaxed load, a decrement, and a branch.
  bool ShouldSample() {
    if constexpr (!kCompiledIn) {
      return false;
    }
    if (!enabled_.load(std::memory_order_relaxed)) {
      return false;
    }
    ThreadState& ts = Tls();
    if (ts.countdown == 0) {
      ts.countdown = sample_every_.load(std::memory_order_relaxed);
    }
    if (--ts.countdown == 0) {
      ts.countdown = sample_every_.load(std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  // Records one individually timed sample: histogram update on the current
  // CPU plus one ObsEvent through the ring buffer.
  void RecordSample(u16 scope, u64 ns, u32 flow);

  // Emits a control-plane transition event (kControl) — e.g. a chain
  // reconfiguration committing or rolling back. Control events are rare by
  // construction, so they bypass the 1/N sampler: every transition is
  // visible in the event stream when telemetry is enabled. `code` rides in
  // the flow field, `value` in latency_ns; neither touches the histograms.
  void RecordControl(u16 scope, u32 code, u64 value);

  // Burst-path recording: one histogram lookup attributes the burst-average
  // latency to every sampled packet, and each sampled packet emits its own
  // ObsEvent. The 1/N countdown advances by `count`, so burst and scalar
  // paths sample at the same rate. `flow_of(i)` supplies the flow id of
  // burst slot i and runs only for sampled slots.
  template <typename FlowOf>
  void RecordBurst(u16 scope, u64 burst_ns, u32 count, FlowOf&& flow_of) {
    if constexpr (!kCompiledIn) {
      return;
    }
    if (count == 0 || scope == kInvalidScope ||
        !enabled_.load(std::memory_order_relaxed)) {
      return;
    }
    const u32 every = sample_every_.load(std::memory_order_relaxed);
    ThreadState& ts = Tls();
    if (ts.countdown == 0) {
      ts.countdown = every;
    }
    if (count < ts.countdown) {
      ts.countdown -= count;
      return;
    }
    const u32 first = ts.countdown - 1;  // slot index of the first sample
    const u32 sampled = 1 + (count - ts.countdown) / every;
    ts.countdown = every - (count - ts.countdown) % every;
    const u64 avg_ns = burst_ns / count;
    HistAdd(scope, avg_ns, sampled);
    for (u32 i = first; i < count; i += every) {
      EmitEvent(scope, ObsEvent::kBurst, flow_of(i), avg_ns);
    }
  }

  // The event ring (for wiring up a RingbufConsumer / FlowSampler).
  ebpf::RingbufMap& ring() { return ring_; }

  // Control-plane transitions emitted since start (reconfiguration
  // begin/commit/rollback). Counted at the emission point,
  // so it includes events the ring dropped; the reconfig chaos harness
  // cross-checks its event log against this.
  u64 control_events() const {
    return control_events_.load(std::memory_order_relaxed);
  }

  // Harness-side: histogram for `scope` merged across all CPUs. Like the
  // percpu-map harness accessors, this reads without synchronizing against
  // in-flight producers — call it after the datapath has quiesced (or accept
  // an approximate snapshot).
  LatencyHist Snapshot(u16 scope);

 private:
  struct ThreadState {
    u32 countdown = 0;
    u64 seq = 0;
  };
  static ThreadState& Tls();

  // Out-of-line pieces of the sampled path.
  void HistAdd(u16 scope, u64 ns, u32 weight);
  void EmitEvent(u16 scope, u16 kind, u32 flow, u64 ns);

  ebpf::PercpuArrayMap<LatencyHist> hists_;
  ebpf::RingbufMap ring_;
  std::atomic<u64> control_events_{0};
  std::atomic<bool> enabled_{false};
  std::atomic<u32> sample_every_{1};
  mutable std::mutex mu_;  // guards scopes_
  std::vector<std::string> scopes_;
  u64 scopes_refused_ = 0;
};

// RAII scalar-path sampler: decides at construction whether this event is
// sampled (so unsampled packets never read the clock), times the enclosed
// region with bpf_ktime_get_ns, and records on destruction. Set the flow id
// after construction (only if armed()) to keep flow parsing off the
// unsampled path.
class ScalarSample {
 public:
  explicit ScalarSample(u16 scope, u32 flow = 0) {
    if constexpr (kCompiledIn) {
      if (scope != kInvalidScope && Telemetry::Global().ShouldSample()) {
        scope_ = scope;
        flow_ = flow;
        t0_ = ebpf::helpers::BpfKtimeGetNs();
      }
    }
  }

  ~ScalarSample() {
    if constexpr (kCompiledIn) {
      if (t0_ != 0) {
        Telemetry::Global().RecordSample(
            scope_, ebpf::helpers::BpfKtimeGetNs() - t0_, flow_);
      }
    }
  }

  ScalarSample(const ScalarSample&) = delete;
  ScalarSample& operator=(const ScalarSample&) = delete;

  bool armed() const { return t0_ != 0; }
  void set_flow(u32 flow) { flow_ = flow; }

 private:
  u64 t0_ = 0;
  u16 scope_ = kInvalidScope;
  u32 flow_ = 0;
};

}  // namespace obs

#endif  // ENETSTL_OBS_TELEMETRY_H_
