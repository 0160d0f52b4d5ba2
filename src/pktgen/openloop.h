// Open-loop arrival engine: offered load decoupled from service rate.
//
// Every other harness in this repo is CLOSED-LOOP — the next burst is
// offered only after the previous one returns, so the generator silently
// slows down to whatever the NF under test can absorb. That shape can never
// observe queueing collapse, and its latency numbers suffer coordinated
// omission: the packets that would have arrived during a stall are simply
// never generated, so the stall's queue-wait vanishes from the percentiles.
//
// This engine fixes both by construction:
//
//  * Each packet carries a VIRTUAL ARRIVAL TIME drawn from a pluggable
//    arrival process (Poisson, Markov-modulated ON/OFF, linear ramp) at a
//    configured offered rate — the generator never waits for the server.
//  * Arrivals feed a bounded ingress queue. When the server falls
//    behind, the queue grows; when it is full, packets TAIL-DROP and are
//    counted — overload is visible as queue depth and loss, exactly like a
//    NIC ring, never as silent back-pressure.
//  * The server drains the queue in bursts; each burst's service time (a
//    real measured duration, or an injected synthetic model in tests)
//    advances the virtual clock. A packet's SOJOURN time is
//    departure - virtual arrival: service PLUS every nanosecond it queued,
//    including time queued behind a stalled consumer. Recording sojourn from
//    arrival rather than from dequeue is the coordinated-omission fix.
//
// The simulation is one queue+server pair, sequential and deterministic
// given (trace, arrivals, service model), so differential tests can replay
// the exact admitted sequence through a twin NF and demand bit-identical
// verdicts (the scenario matrix's graceful-degradation invariant).
// Multi-core load belongs to the slot engine (ShardedPipeline).
#ifndef ENETSTL_PKTGEN_OPENLOOP_H_
#define ENETSTL_PKTGEN_OPENLOOP_H_

#include <functional>
#include <utility>
#include <vector>

#include "obs/telemetry.h"
#include "pktgen/flowgen.h"
#include "pktgen/packet.h"
#include "pktgen/pipeline.h"

namespace pktgen {

// --- Arrival processes ---------------------------------------------------
//
// Each generator returns `count` nondecreasing virtual arrival timestamps
// (ns, starting near 0), deterministic for a given seed.

// Poisson arrivals at `rate_pps`: i.i.d. exponential inter-arrival gaps with
// mean 1e9/rate_pps ns (CV = 1).
std::vector<u64> MakePoissonArrivals(double rate_pps, u32 count, u64 seed);

// Markov-modulated ON/OFF (bursty) arrivals: the source alternates between
// an ON state emitting Poisson arrivals at `peak_pps` and a silent OFF
// state. Dwell times are exponential with mean `mean_on_ns` in ON and
// mean_on_ns * (1 - duty) / duty in OFF, so the long-run fraction of time
// spent ON is `duty` and the mean offered rate is peak_pps * duty.
// Requires 0 < duty <= 1 (duty == 1 degenerates to Poisson at peak_pps).
std::vector<u64> MakeOnOffArrivals(double peak_pps, double duty,
                                   double mean_on_ns, u32 count, u64 seed);

// Linear ramp: instantaneous rate grows linearly from start_pps (packet 0)
// to end_pps (packet count-1), with exponential jitter per gap — an
// inhomogeneous Poisson approximation. Sweeping through an NF's capacity in
// one run locates the overload transition without a per-level restart.
std::vector<u64> MakeRampArrivals(double start_pps, double end_pps, u32 count,
                                  u64 seed);

// Mean offered rate implied by an arrival vector: (n-1) gaps over the span.
// 0 when fewer than 2 arrivals.
double OfferedPps(const std::vector<u64>& arrivals);

// --- Service model -------------------------------------------------------

// Serves one burst (writing one verdict per packet) and returns the burst's
// service time in ns, which advances the virtual clock. Must return >= 1 for
// a nonempty burst (the engine clamps, guaranteeing progress).
using ServiceModel =
    std::function<u64(ebpf::XdpContext* ctxs, u32 count,
                      ebpf::XdpAction* verdicts)>;

// Wraps a burst handler with steady-clock timing — the production service
// model. Non-owning: the handler's target must outlive the returned model.
ServiceModel MeasuredService(PacketBurstHandler handler);

// --- Engine --------------------------------------------------------------

struct OpenLoopConfig {
  // Bounded ingress queue capacity; arrivals beyond it tail-drop.
  u32 queue_capacity = 1024;
  // Packets dequeued per service burst (clamped to [1, kMaxBurstSize]).
  u32 burst_size = 32;
  // Ceiling on a single burst's service time (ns); 0 = unlimited. With a
  // MeasuredService model on a shared machine, an OS preemption of the
  // harness lands in the measured burst as a multi-millisecond spike and
  // the virtual clock would charge it to the NF — flooding the queue and
  // faking drops at loads the server handles easily. A generous ceiling
  // (an order of magnitude above honest worst-case burst service) clips
  // exactly those harness artifacts while keeping genuine NF slowdowns
  // visible. Leave 0 for synthetic service models, whose scripted stalls
  // (the coordinated-omission tests) must count in full.
  u64 max_service_ns = 0;
  // Optional telemetry mirror: when a valid scope is given and the global
  // Telemetry plane is enabled, every served packet's sojourn is recorded
  // into that scope (log2 histogram + sampled ObsEvent stream), so the SLO
  // exporter reads open-loop tails through the same plane as everything
  // else. kInvalidScope (default) keeps the engine self-contained.
  obs::u16 obs_scope = obs::kInvalidScope;
  // Optional service-order log of (trace index, verdict) for every served
  // packet; the overload scenarios replay it through a twin NF closed-loop
  // and demand identical verdicts. Null disables logging.
  std::vector<std::pair<u32, ebpf::XdpAction>>* served_log = nullptr;
};

struct OpenLoopStats {
  // Exact accounting invariant: offered == admitted + dropped, and
  // admitted == served after Run returns (the engine always drains).
  u64 offered = 0;
  u64 admitted = 0;
  u64 dropped = 0;  // tail drops at a full ingress queue
  u64 served = 0;

  u64 passed = 0;           // XDP_PASS / TX / REDIRECT verdicts
  u64 dropped_verdicts = 0; // XDP_DROP verdicts (NF decisions, not queue loss)
  u64 aborted = 0;          // XDP_ABORTED verdicts

  u64 max_queue_depth = 0;   // deepest the queue got
  u64 last_departure_ns = 0; // virtual makespan end
  double offered_pps = 0.0;
  double achieved_pps = 0.0; // served / last_departure_ns

  // Sojourn: departure - virtual arrival (queue wait + service). THE
  // open-loop latency. Service: burst-average service time attributed per
  // packet — what a closed-loop harness would have reported; kept so the
  // coordinated-omission divergence is measurable in one run.
  obs::LatencyHist sojourn;
  obs::LatencyHist service;

  double drop_fraction() const {
    return offered > 0
               ? static_cast<double>(dropped) / static_cast<double>(offered)
               : 0.0;
  }
};

class OpenLoopEngine {
 public:
  explicit OpenLoopEngine(const OpenLoopConfig& config);

  // Replays trace[i] arriving at arrivals[i] through the service model.
  // Requires arrivals.size() == trace.size() and arrivals nondecreasing.
  // The trace is copied (NFs rewrite frames in place, e.g. NAT).
  OpenLoopStats Run(const Trace& trace, const std::vector<u64>& arrivals,
                    const ServiceModel& service) const;

  const OpenLoopConfig& config() const { return config_; }

 private:
  OpenLoopConfig config_;
};

}  // namespace pktgen

#endif  // ENETSTL_PKTGEN_OPENLOOP_H_
