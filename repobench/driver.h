// The driver every workload runs under. It owns what is the same for all of
// them: the timed set-up repetitions, the correctness gate ahead of every
// timed window, the untraced window of calibrated reps, the traced run's
// alternation of untraced and traced reps, the empty-dispatch reps, and the
// per-layer probes common to all workloads. A workload supplies its rig, its
// gate, its reps and the ledger rows only it can fill.
#ifndef REPOBENCH_DRIVER_H_
#define REPOBENCH_DRIVER_H_

#include <memory>
#include <type_traits>
#include <vector>

#include "common.h"
#include "ledger.h"
#include "pktgen/packet.h"
#include "stats.h"

namespace rb {

enum class Mode {
  kUntraced,  // the datapath as a user runs it
  kTraced,    // the same, with spans around each layer call
  kEmpty,     // the same loop with an empty burst handler (dispatch cost)
};

// Untimed bursts ahead of every single-core rep. The calibration loop that
// precedes a rep displaces part of the workload's cache state; these bursts
// restore it, so the timed bursts start where a back-to-back rep would.
inline constexpr u32 kWarmBursts = 128;

struct RepTiming {
  double mpps = 0.0;            // closed-loop packet rate of the rep
  double cpu_ns_per_pkt = 0.0;  // CPU time per packet, summed over cores
  // Calibration the rep took on the threads it ran on (ns per load); 0 when
  // it ran on the driver's thread, which calibrates before the rep.
  double calib_ns = 0.0;
};

// A workload's measured state: flows, traces, primed tables, loaded chain.
struct Rig {
  virtual ~Rig() = default;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds a rig from the seed; nullptr on failure. Each call is one timed
  // set-up: everything a user builds before the first packet.
  virtual std::unique_ptr<Rig> Build() = 0;
  // Adopts the first rig built; the reps and the gate run on it.
  virtual void Use(std::unique_ptr<Rig> rig) = 0;
  // The memory regime the workload's datapath runs in; it sizes the
  // calibration loop (see Calibrator).
  virtual MemRegime Regime() const = 0;

  // Correctness gate, run before any timed rep; reports through Mismatch.
  virtual void Gate(Result& out) = 0;
  // One rep in `mode`. Appends each burst's service time (ns) to *burst_ns;
  // records spans in kTraced mode. Adds to attempted_ and failed_.
  virtual RepTiming Rep(Mode mode, SpanRecorder* spans,
                        std::vector<u32>* burst_ns) = 0;
  // Invariants that must hold after the reps.
  virtual void CheckAfterReps(Result& out) {}

  // Called before the traced run's reps: interns span names and snapshots
  // the counters the ledger reports as differences.
  virtual void BeginLedger(SpanRecorder& spans) {}
  // Fills the rows only this workload can fill (stages, fusion, conntrack,
  // reconfig), spending about `budget_s` per probe. Returns the per-packet
  // time of the housekeeping done outside the NF call (clock advance,
  // swaps), which the closure ratio adds to the layer times.
  virtual double FillLedger(double budget_s, SpanRecorder& spans,
                            Ledger* ledger) = 0;
  // Inputs of the common probes: the workload's own trace, and the flow
  // population the arena probe keeps live.
  virtual const pktgen::Trace& ProbeTrace() const = 0;
  virtual u32 ProbePopulation() const = 0;

  u64 attempted() const { return attempted_; }
  u64 failed() const { return failed_; }

 protected:
  u64 attempted_ = 0;  // packets offered plus control operations requested
  u64 failed_ = 0;     // aborted/dropped verdicts, failed operations
};

// Runs one workload: set-up, gate, then the end-to-end window (spans ==
// nullptr) or the traced per-layer ledger.
void RunWorkload(Workload& w, const Options& opt, SpanRecorder* spans,
                 Result& out);

template <Mode kMode>
u32 SpanBegin(SpanRecorder* spans, u16 name, u32 parent) {
  if constexpr (kMode == Mode::kTraced) {
    return spans->Begin(name, parent);
  } else {
    return 0;
  }
}

template <Mode kMode>
void SpanEnd(SpanRecorder* spans, u32 id) {
  if constexpr (kMode == Mode::kTraced) {
    spans->End(id);
  }
}

struct BurstSpans {
  u16 burst = 0;  // root span of one burst
  u16 call = 0;   // the NF entry point, child of the burst
};

// The closed loop of a single-core workload: `bursts` bursts of kBurst, each
// offered when the previous one returns. prepare(root) does the burst's work
// ahead of the NF call (it may record child spans of `root`) and returns its
// contexts; call(ctxs, verdicts) is the NF entry point, and the burst's
// service time is taken around it (kEmpty calls g_empty_burst instead);
// finish(root, verdicts) does the work after the call.
template <Mode kMode, typename Prepare, typename Call, typename Finish>
void RunBurstLoop(u32 bursts, SpanRecorder* spans, const BurstSpans& names,
                  std::vector<u32>* burst_ns, Prepare&& prepare, Call&& call,
                  Finish&& finish) {
  ebpf::XdpAction v[kBurst];
  for (u32 k = 0; k < bursts; ++k) {
    const u32 root = SpanBegin<kMode>(spans, names.burst, 0);
    ebpf::XdpContext* ctxs = prepare(root);
    const u32 span = SpanBegin<kMode>(spans, names.call, root);
    const u64 t0 = NowNs();
    if constexpr (kMode == Mode::kEmpty) {
      g_empty_burst(ctxs, kBurst, v);
    } else {
      call(ctxs, v);
    }
    const u64 t1 = NowNs();
    SpanEnd<kMode>(spans, span);
    burst_ns->push_back(static_cast<u32>(t1 - t0));
    finish(root, v);
    SpanEnd<kMode>(spans, root);
  }
}

// One single-core rep: kWarmBursts untimed untraced bursts, then `bursts`
// timed bursts in `mode`. run(mode_constant, bursts, burst_ns) runs bursts
// with the mode as a compile-time constant.
template <typename Run>
RepTiming TimeRep(Mode mode, u32 bursts, std::vector<u32>* burst_ns,
                  Run&& run) {
  using Untraced = std::integral_constant<Mode, Mode::kUntraced>;
  std::vector<u32> warm;
  warm.reserve(kWarmBursts);
  run(Untraced{}, kWarmBursts, &warm);
  const u64 t0 = NowNs();
  switch (mode) {
    case Mode::kUntraced:
      run(Untraced{}, bursts, burst_ns);
      break;
    case Mode::kTraced:
      run(std::integral_constant<Mode, Mode::kTraced>{}, bursts, burst_ns);
      break;
    case Mode::kEmpty:
      run(std::integral_constant<Mode, Mode::kEmpty>{}, bursts, burst_ns);
      break;
  }
  const u64 t1 = NowNs();
  const double ns_per_pkt = static_cast<double>(t1 - t0) /
                            (static_cast<double>(bursts) * kBurst);
  return RepTiming{1e3 / ns_per_pkt, ns_per_pkt};
}

}  // namespace rb

#endif  // REPOBENCH_DRIVER_H_
