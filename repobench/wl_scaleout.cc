// scaleout_skew: ShardedPipeline::MeasureScaleOut with two shards, migration
// on, a Zipf(1.1) trace, and an RSS seed under which the heaviest flows
// share a shard. Each shard runs its own eNetSTL conntrack kTrack replica
// and advances its clock one wheel slot per burst. The only workload in which
// steering, slot handoff and the migration controller do work.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "nf/conntrack.h"
#include "pktgen/flowgen.h"
#include "pktgen/sharded_pipeline.h"
#include "workloads.h"

namespace rb {
namespace {

constexpr u32 kShards = 2;
constexpr u32 kFlows = 16384;
constexpr u32 kTracePackets = 16384;
constexpr double kZipf = 1.1;
constexpr u64 kRepPackets = 1u << 23;
constexpr u32 kRssCandidates = 256;
constexpr u32 kProbeSwaps = 9;

pktgen::Trace MakeTrace(u64 seed, std::vector<ebpf::FiveTuple>* flows) {
  *flows = pktgen::MakeFlowPopulation(kFlows, SubSeed(seed, 1));
  return pktgen::MakeZipfTrace(*flows, kTracePackets, kZipf, SubSeed(seed, 2));
}

// Picks, among kRssCandidates seed-derived RSS seeds, the one that loads the
// busiest shard most under static steering while the two heaviest flows
// share that shard. False when no candidate puts them together.
bool ChooseRssSeed(u64 seed, u32* rss_seed, double* hot_share) {
  std::vector<ebpf::FiveTuple> flows;
  const pktgen::Trace trace = MakeTrace(seed, &flows);
  const pktgen::Packet top0 = pktgen::Packet::FromTuple(flows[0]);
  const pktgen::Packet top1 = pktgen::Packet::FromTuple(flows[1]);
  const u32 base = static_cast<u32>(SubSeed(seed, 3));
  bool found = false;
  for (u32 i = 0; i < kRssCandidates; ++i) {
    const u32 rss = base + i;
    const u32 q0 =
        pktgen::RssSlotForPacket(top0, pktgen::kRssIndirectionSize, rss) % kShards;
    const u32 q1 =
        pktgen::RssSlotForPacket(top1, pktgen::kRssIndirectionSize, rss) % kShards;
    if (q0 != q1) {
      continue;
    }
    u64 load[kShards] = {};
    for (const pktgen::Packet& p : trace) {
      ++load[pktgen::RssSlotForPacket(p, pktgen::kRssIndirectionSize, rss) %
             kShards];
    }
    const double share = static_cast<double>(std::max(load[0], load[1])) /
                         static_cast<double>(trace.size());
    if (!found || share > *hot_share) {
      *rss_seed = rss;
      *hot_share = share;
      found = true;
    }
  }
  return found;
}

// Per-shard replica and samples; the handler runs on the shard's worker
// thread only, and the benchmark reads it after MeasureScaleOut has joined.
struct Shard {
  std::unique_ptr<nf::ConntrackEnetstl> ct;
  std::vector<u32> burst_ns;
  std::vector<u64> intervals;  // traced: t0, t1, t2 per burst
  u64 now_ns = 0;
  double calib_ns = 0.0;  // taken on the shard's thread at its first burst
};

std::vector<std::unique_ptr<Shard>> MakeShards() {
  std::vector<std::unique_ptr<Shard>> shards;
  for (u32 c = 0; c < kShards; ++c) {
    auto shard = std::make_unique<Shard>();
    nf::ConntrackConfig config;
    config.mode = nf::CtMode::kTrack;
    shard->ct = std::make_unique<nf::ConntrackEnetstl>(config);
    shards.push_back(std::move(shard));
  }
  return shards;
}

// What a user builds before the first packet: the trace, the pipeline and
// one conntrack replica per shard. Every rep runs on fresh replicas.
struct ScaleRig : Rig {
  pktgen::Trace trace;
  std::unique_ptr<pktgen::ShardedPipeline> pipeline;
  std::vector<std::unique_ptr<Shard>> shards;
  bool used = false;         // the replicas have served a rep
  bool served_real = false;  // ... and that rep ran the NF, not kEmpty
};

pktgen::MigrationPolicy MigratePolicy() {
  pktgen::MigrationPolicy policy;
  policy.enabled = true;
  policy.window_us = 100;
  policy.k_windows = 1;
  policy.skew_threshold = 1.10;
  policy.max_slots_per_round = 16;
  return policy;
}

std::unique_ptr<ScaleRig> Setup(u64 seed, u32 rss_seed) {
  auto rig = std::make_unique<ScaleRig>();
  std::vector<ebpf::FiveTuple> flows;
  rig->trace = MakeTrace(seed, &flows);
  pktgen::ShardedPipeline::Options opts;
  opts.num_workers = kShards;
  opts.burst_size = kBurst;
  opts.measure_packets = kRepPackets;
  opts.warmup_packets = kRepPackets / 20;
  opts.rss_seed = rss_seed;
  rig->pipeline = std::make_unique<pktgen::ShardedPipeline>(opts);
  rig->shards = MakeShards();
  return rig;
}

struct RepOut {
  pktgen::ShardedPipeline::Result result;
  double busy_total_s = 0.0;
  u64 start_ns = 0;
  u64 end_ns = 0;
};

class ScaleoutWorkload : public Workload {
 public:
  // The RSS seed search picks the benchmark's input; a user never runs it,
  // so it is done once here, outside the timed set-up.
  explicit ScaleoutWorkload(u64 seed)
      : seed_(seed), found_(ChooseRssSeed(seed, &rss_seed_, &hot_share_)) {}

  std::unique_ptr<Rig> Build() override {
    return found_ ? Setup(seed_, rss_seed_) : nullptr;
  }
  void Use(std::unique_ptr<Rig> rig) override {
    rig_.reset(static_cast<ScaleRig*>(rig.release()));
    std::printf("scaleout_skew: rss_seed %u, static hot-shard share %.3f\n",
                rss_seed_, hot_share_);
  }
  MemRegime Regime() const override { return MemRegime::kCache; }

  // One untimed rep must account for every offered packet.
  void Gate(Result& out) override {
    std::vector<u32> ns;
    Rep(Mode::kUntraced, nullptr, &ns);
    CheckAfterReps(out);
  }

  RepTiming Rep(Mode mode, SpanRecorder* spans,
                std::vector<u32>* burst_ns) override {
    RepOut rep;
    switch (mode) {
      case Mode::kUntraced:
        rep = RunRep<Mode::kUntraced>();
        break;
      case Mode::kTraced:
        rep = RunRep<Mode::kTraced>();
        break;
      case Mode::kEmpty:
        rep = RunRep<Mode::kEmpty>();
        break;
    }
    const auto& r = rep.result;
    attempted_ += kRepPackets;
    u64 shard_sum = 0;
    for (const auto& s : r.shards) {
      shard_sum += s.stats.packets;
    }
    accounted_ &= r.total.packets == kRepPackets && r.failed_workers == 0 &&
                  shard_sum == r.total.packets &&
                  (mode == Mode::kEmpty || r.total.passed == r.total.packets);
    if (mode != Mode::kEmpty) {
      failed_ += kRepPackets - std::min<u64>(kRepPackets, r.total.packets) +
                 r.total.aborted + r.total.dropped;
      Account(rep);
    }
    for (const auto& s : rig_->shards) {
      burst_ns->insert(burst_ns->end(), s->burst_ns.begin(), s->burst_ns.end());
    }
    if (mode == Mode::kTraced) {
      AddSpans(rep, *spans);
    }
    double calib_ns = 0.0;
    for (const auto& s : rig_->shards) {
      calib_ns += s->calib_ns / kShards;
    }
    return RepTiming{r.offered_pps / 1e6,
                     rep.busy_total_s * 1e9 /
                         static_cast<double>(std::max<u64>(1, r.total.packets)),
                     calib_ns};
  }

  void CheckAfterReps(Result& out) override {
    if (!accounted_) {
      out.Mismatch("scaleout_skew: a rep did not serve every offered packet "
                   "(served != offered, a failed worker, or a packet not "
                   "passed)");
    }
  }

  void BeginLedger(SpanRecorder& spans) override {
    rep_name_ = spans.Intern("pktgen.scaleout.MeasureScaleOut");
    call_name_ = spans.Intern("nf.conntrack.ProcessBurst");
    advance_name_ = spans.Intern("nf.conntrack.AdvanceTo");
    skew_.clear();
    moved_.clear();
    handoffs_.clear();
    retries_.clear();
    advance_ns_.clear();
    ct_ = CtSums();
  }

  double FillLedger(double budget_s, SpanRecorder& spans,
                    Ledger* ledger) override {
    ledger->busy_skew = Median(skew_);
    ledger->slots_moved = Median(moved_);
    ledger->handoffs = Median(handoffs_);
    ledger->handoff_retries = Median(retries_);
    ledger->ct_hit_frac = ct_.lookups ? static_cast<double>(ct_.hits) /
                                            static_cast<double>(ct_.lookups)
                                      : 0.0;
    ledger->ct_created = static_cast<double>(ct_.created);
    ledger->ct_torn_down = static_cast<double>(ct_.torn_down);
    ledger->ct_lru_evictions = static_cast<double>(ct_.lru_evictions);
    ledger->ct_refused = static_cast<double>(ct_.refused);
    ledger->ct_advance_ns_p99 = Percentile(advance_ns_, 99.0);
    ledger->advance_samples = advance_ns_.size();
    ledger->stages_ns_per_pkt = AloneNsPerPkt(budget_s, spans);
    ledger->ct_burst_ns_per_pkt = ledger->stages_ns_per_pkt;
    ledger->stages.emplace_back("0-conntrack", ledger->stages_ns_per_pkt);

    // The swap probe uses a replica that served real traffic.
    std::vector<u32> swap_ns;
    ledger->swap_rollbacks = static_cast<double>(
        StateTransferSwapProbe(std::move(served_ct_), kProbeSwaps, &swap_ns));
    ledger->swap_p50_us = Percentile(swap_ns, 50.0) / 1e3;
    ledger->swap_p99_us = Percentile(swap_ns, 99.0) / 1e3;
    ledger->swap_samples = swap_ns.size();
    return MeanPer(advance_ns_, kBurst);
  }

  const pktgen::Trace& ProbeTrace() const override { return rig_->trace; }
  u32 ProbePopulation() const override { return kFlows; }

 private:
  struct CtSums {
    u64 hits = 0;
    u64 lookups = 0;
    u64 created = 0;
    u64 torn_down = 0;
    u64 lru_evictions = 0;
    u64 refused = 0;
  };

  // One MeasureScaleOut call on fresh replicas. Each shard ages its replica
  // one wheel slot per burst.
  template <Mode kMode>
  RepOut RunRep() {
    ScaleRig& rig = *rig_;
    if (rig.used) {
      if (rig.served_real) {
        served_ct_ = std::move(rig.shards[0]->ct);
      }
      rig.shards = MakeShards();
    }
    for (auto& shard : rig.shards) {
      shard->burst_ns.reserve(kRepPackets / kBurst);
      if (kMode == Mode::kTraced) {
        shard->intervals.reserve(3 * kRepPackets / kBurst);
      }
    }
    const auto factory =
        [this, &rig](u32 cpu) -> pktgen::ShardedPipeline::ShardProgram {
      Shard* shard = rig.shards[cpu].get();
      Calibrator* calib = &calib_[cpu];
      return {[shard, calib](ebpf::XdpContext* ctxs, u32 count,
                             ebpf::XdpAction* verdicts) {
                if (shard->calib_ns == 0.0) {
                  // On the shard's own thread: its core's neighbours are
                  // the ones that slow this shard.
                  shard->calib_ns = calib->NsPerLoad();
                }
                const u64 t0 = NowNs();
                if constexpr (kMode == Mode::kEmpty) {
                  g_empty_burst(ctxs, count, verdicts);
                } else {
                  shard->ct->ProcessBurst(ctxs, count, verdicts);
                }
                const u64 t1 = NowNs();
                shard->burst_ns.push_back(static_cast<u32>(t1 - t0));
                if constexpr (kMode != Mode::kEmpty) {
                  shard->now_ns +=
                      shard->ct->config().table.wheel_granularity_ns;
                  shard->ct->AdvanceTo(shard->now_ns);
                }
                if constexpr (kMode == Mode::kTraced) {
                  shard->intervals.push_back(t0);
                  shard->intervals.push_back(t1);
                  shard->intervals.push_back(NowNs());
                }
              },
              nullptr};
    };
    RepOut out;
    out.start_ns = NowNs();
    out.result = rig.pipeline->MeasureScaleOut(factory, rig.trace,
                                               MigratePolicy());
    out.end_ns = NowNs();
    for (const auto& s : out.result.shards) {
      out.busy_total_s += s.busy_seconds;
    }
    rig.used = true;
    rig.served_real = kMode != Mode::kEmpty;
    return out;
  }

  // Per-rep ledger inputs: steering skew, migration counts, conntrack
  // counters.
  void Account(const RepOut& rep) {
    const auto& r = rep.result;
    double max_busy = 0.0;
    for (const auto& s : r.shards) {
      max_busy = std::max(max_busy, s.busy_seconds);
    }
    skew_.push_back(max_busy / (rep.busy_total_s / r.shards.size()));
    moved_.push_back(static_cast<double>(r.migration.slots_moved));
    handoffs_.push_back(static_cast<double>(r.migration.handoffs));
    retries_.push_back(static_cast<double>(r.migration.handoff_retries));
    for (const auto& s : rig_->shards) {
      nf::ConntrackEnetstl& ct = *s->ct;
      ct_.hits += ct.hits();
      ct_.lookups += ct.hits() + ct.misses();
      ct_.created += ct.created();
      ct_.torn_down += ct.torn_down();
      ct_.lru_evictions += ct.table().stats().lru_evictions;
      ct_.refused += ct.table().stats().insert_failures;
    }
  }

  // Spans of a traced rep, merged from the shards' intervals after the join;
  // they fill at most half the recorder, so the probes keep room.
  void AddSpans(const RepOut& rep, SpanRecorder& spans) {
    const u32 root = spans.Add(rep_name_, 0, rep.start_ns, rep.end_ns);
    for (const auto& s : rig_->shards) {
      for (std::size_t i = 0; i + 2 < s->intervals.size(); i += 3) {
        if (spans.HasRoom(0.5)) {
          spans.Add(call_name_, root, s->intervals[i], s->intervals[i + 1]);
          spans.Add(advance_name_, root, s->intervals[i + 1],
                    s->intervals[i + 2]);
        }
        advance_ns_.push_back(
            static_cast<u32>(s->intervals[i + 2] - s->intervals[i + 1]));
      }
    }
  }

  // One replica alone on the whole trace, on this thread.
  double AloneNsPerPkt(double budget_s, SpanRecorder& spans) {
    nf::ConntrackConfig config;
    config.mode = nf::CtMode::kTrack;
    nf::ConntrackEnetstl ct(config);
    pktgen::Trace frames = rig_->trace;
    std::vector<ebpf::XdpContext> ctxs(frames.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
      ctxs[i] = ebpf::XdpContext{frames[i].frame,
                                 frames[i].frame + ebpf::kFrameSize, 0};
    }
    const u16 alone = spans.Intern("nf.stage.0-conntrack");
    ebpf::XdpAction v[kBurst];
    const u32 bursts = static_cast<u32>(frames.size() / kBurst);
    u64 now = 0;
    u64 ns = 0;
    u64 packets = 0;
    const u64 deadline = NowNs() + static_cast<u64>(budget_s * 1e9);
    for (u32 b = 0; packets < 65536 || NowNs() < deadline;
         b = (b + 1) % bursts) {
      const u32 span = spans.Begin(alone, 0);
      const u64 t0 = NowNs();
      ct.ProcessBurst(&ctxs[b * kBurst], kBurst, v);
      const u64 t1 = NowNs();
      spans.End(span);
      ns += t1 - t0;
      packets += kBurst;
      now += config.table.wheel_granularity_ns;
      ct.AdvanceTo(now);
    }
    return static_cast<double>(ns) / static_cast<double>(packets);
  }

  u64 seed_;
  u32 rss_seed_ = 0;
  double hot_share_ = 0.0;  // static-RSS share of the busiest shard
  bool found_;
  std::unique_ptr<ScaleRig> rig_;
  // One calibration loop per shard; built with the workload, so its tables
  // are not counted as set-up memory.
  std::vector<Calibrator> calib_ =
      std::vector<Calibrator>(kShards, Calibrator(MemRegime::kCache));
  bool accounted_ = true;
  std::unique_ptr<nf::ConntrackEnetstl> served_ct_;
  u16 rep_name_ = 0;
  u16 call_name_ = 0;
  u16 advance_name_ = 0;
  std::vector<double> skew_;
  std::vector<double> moved_;
  std::vector<double> handoffs_;
  std::vector<double> retries_;
  std::vector<u32> advance_ns_;
  CtSums ct_;
};

}  // namespace

std::unique_ptr<Workload> MakeScaleoutSkew(u64 seed) {
  return std::make_unique<ScaleoutWorkload>(seed);
}

}  // namespace rb
