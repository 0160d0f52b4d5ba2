#include "driver.h"

#include <cstdio>
#include <string>

#include "nf/nf_registry.h"

namespace rb {
namespace {

// Shares of --seconds the runs spend per phase.
constexpr double kWarmShare = 0.03;            // untimed reps after the gate
constexpr double kWindowShare = 0.87;          // untraced: the timed window
constexpr double kTracedDatapathShare = 0.45;  // traced: datapath reps
constexpr double kTracedProbeShare = 0.07;     // traced: each probe

// Set-up repetitions per untraced run. The first builds the measured rig;
// the others build throwaway rigs between reps, spread evenly over the
// window so they meet the host in the states the reps meet.
constexpr std::size_t kSetupReps = 8;

// Reps at least, whatever the time budget.
constexpr std::size_t kMinReps = 5;

u64 Deadline(double seconds) {
  return NowNs() + static_cast<u64>(seconds * 1e9);
}

std::unique_ptr<Rig> TimedBuild(Workload& w, std::vector<double>* setup_s) {
  const u64 t0 = NowNs();
  std::unique_ptr<Rig> rig = w.Build();
  setup_s->push_back(static_cast<double>(NowNs() - t0) / 1e9);
  return rig;
}

void RunWindow(Workload& w, const Options& opt, Calibrator& calib,
               EndToEnd& e2e) {
  const double window_s = opt.seconds * kWindowShare;
  const u64 start = NowNs();
  const u64 deadline = Deadline(window_s);
  const u64 setup_period = static_cast<u64>(window_s * 1e9) / kSetupReps;
  std::vector<u32> burst_ns;
  while (e2e.rep_mpps.size() < kMinReps || NowNs() < deadline) {
    burst_ns.clear();
    double calib_ns = calib.NsPerLoad();
    const RepTiming rep = w.Rep(Mode::kUntraced, nullptr, &burst_ns);
    if (rep.calib_ns > 0.0) {
      calib_ns = rep.calib_ns;
    }
    e2e.AddRep(rep.mpps, burst_ns, calib_ns, calib.Scale(calib_ns));
    const std::size_t done = e2e.setup_s.size();
    if (done < kSetupReps && NowNs() >= start + done * setup_period) {
      TimedBuild(w, &e2e.setup_s);  // a throwaway rig, freed untimed
    }
  }
}

void RunLedger(Workload& w, const Options& opt, SpanRecorder& spans,
               Result& out) {
  Ledger ledger;
  const double probe_s = opt.seconds * kTracedProbeShare;
  w.BeginLedger(spans);

  // Untraced and traced reps alternate, so the tracing overhead is a
  // within-run ratio. Per-burst spans fill at most half the recorder; the
  // probes record into the rest.
  std::vector<double> untraced_mpps;
  std::vector<double> untraced_cpu_ns;
  std::vector<double> traced_mpps;
  std::vector<u32> untraced_bursts;
  std::vector<u32> traced_bursts;
  const u64 deadline = Deadline(opt.seconds * kTracedDatapathShare);
  while (untraced_mpps.size() < kMinReps || NowNs() < deadline) {
    const RepTiming u = w.Rep(Mode::kUntraced, nullptr, &untraced_bursts);
    untraced_mpps.push_back(u.mpps);
    untraced_cpu_ns.push_back(u.cpu_ns_per_pkt);
    if (spans.HasRoom(0.5)) {
      traced_mpps.push_back(w.Rep(Mode::kTraced, &spans, &traced_bursts).mpps);
    }
  }
  w.CheckAfterReps(out);
  ledger.trace_overhead_frac =
      traced_mpps.empty() ? 0.0
                          : 1.0 - Median(traced_mpps) / Median(untraced_mpps);

  std::vector<double> empty_cpu_ns;
  std::vector<u32> empty_bursts;
  const u64 empty_deadline = Deadline(probe_s);
  while (empty_cpu_ns.size() < kMinReps || NowNs() < empty_deadline) {
    empty_bursts.clear();
    empty_cpu_ns.push_back(
        w.Rep(Mode::kEmpty, nullptr, &empty_bursts).cpu_ns_per_pkt);
  }
  ledger.dispatch_ns_per_pkt = Median(empty_cpu_ns);

  const std::vector<ebpf::FiveTuple> keys = KeysOf(w.ProbeTrace());
  ledger.hash_ns_per_key = HashNsPerKey(keys, probe_s, &spans);
  ledger.multihash_ns_per_key = MultiHashNsPerKey(keys, probe_s, &spans);
  ledger.arena_alloc_free_ns = ArenaAllocFreeNs(
      w.ProbePopulation(), SubSeed(opt.seed, 9), probe_s, &spans);
  ledger.tail_call_ns_per_stage =
      TailCallNsPerStage(w.ProbeTrace(), probe_s, &spans);

  const double housekeeping_ns = w.FillLedger(probe_s, spans, &ledger);
  ledger.chain_overhead_ns_per_pkt =
      MeanPer(untraced_bursts, kBurst) - ledger.stages_ns_per_pkt;
  ledger.closure_ratio = (ledger.dispatch_ns_per_pkt +
                          ledger.stages_ns_per_pkt + housekeeping_ns) /
                         Median(untraced_cpu_ns);
  EmitLedger(ledger, out);
}

}  // namespace

void RunWorkload(Workload& w, const Options& opt, SpanRecorder* spans,
                 Result& out) {
  nf::NfRegistry::Global();  // one-time registry set-up is not workload set-up
  Calibrator calib(w.Regime());  // its table is not the workload's memory
  EndToEnd e2e;
  const u64 rss0 = RssBytes();
  std::unique_ptr<Rig> rig = TimedBuild(w, &e2e.setup_s);
  if (rig == nullptr) {
    out.Mismatch(opt.workload + ": set-up failed");
    return;
  }
  const u64 rss1 = RssBytes();
  e2e.mem_mb = rss1 > rss0 ? static_cast<double>(rss1 - rss0) / 1e6 : 0.0;
  w.Use(std::move(rig));

  w.Gate(out);
  if (!out.correct) {
    return;
  }
  std::vector<u32> warm_bursts;
  const u64 warm_deadline = Deadline(opt.seconds * kWarmShare);
  do {
    warm_bursts.clear();
    w.Rep(Mode::kUntraced, nullptr, &warm_bursts);
  } while (NowNs() < warm_deadline);

  if (spans == nullptr) {
    RunWindow(w, opt, calib, e2e);
    w.CheckAfterReps(out);
    EmitEndToEnd(e2e, calib.ref_ns(), out);
  } else {
    RunLedger(w, opt, *spans, out);
  }
  out.attempted += w.attempted();
  out.failed += w.failed();
}

}  // namespace rb
