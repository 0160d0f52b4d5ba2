// Tests for the open-loop arrival engine (pktgen/openloop.h), the shared
// percentile helpers (obs/percentile.h), and the scenario CLI plumbing.
//
// The arrival-process tests are statistical but run on fixed seeds, so the
// asserted statistics are deterministic — the tolerances guard against a
// future generator change silently altering the distribution, not against
// run-to-run noise. The coordinated-omission test is the regression the
// subsystem exists for: a scripted consumer stall must surface in the
// sojourn tail even though no individual packet's service was slow.
#include "pktgen/openloop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "obs/percentile.h"
#include "obs/slo.h"
#include "pktgen/flowgen.h"

namespace pktgen {
namespace {

// Test-side histogram insert, mirroring the engine's update.
void Record(obs::LatencyHist& hist, u64 ns) {
  hist.counts[obs::Log2Bucket(ns)]++;
  hist.total_ns += ns;
  hist.samples++;
}

// Mean and coefficient of variation of the inter-arrival gaps.
struct GapStats {
  double mean_ns = 0.0;
  double cv = 0.0;
};

GapStats GapStatsOf(const std::vector<u64>& arrivals) {
  GapStats out;
  if (arrivals.size() < 2) {
    return out;
  }
  std::vector<double> gaps;
  gaps.reserve(arrivals.size() - 1);
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    gaps.push_back(static_cast<double>(arrivals[i] - arrivals[i - 1]));
  }
  double sum = 0.0;
  for (const double g : gaps) {
    sum += g;
  }
  out.mean_ns = sum / static_cast<double>(gaps.size());
  double var = 0.0;
  for (const double g : gaps) {
    var += (g - out.mean_ns) * (g - out.mean_ns);
  }
  var /= static_cast<double>(gaps.size());
  out.cv = out.mean_ns > 0 ? std::sqrt(var) / out.mean_ns : 0.0;
  return out;
}

void ExpectNondecreasing(const std::vector<u64>& arrivals) {
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    ASSERT_GE(arrivals[i], arrivals[i - 1]) << "at index " << i;
  }
}

// --- Arrival processes ---------------------------------------------------

TEST(OpenLoopArrivals, PoissonDeterministicPerSeed) {
  const auto a = MakePoissonArrivals(1e6, 5000, 42);
  const auto b = MakePoissonArrivals(1e6, 5000, 42);
  const auto c = MakePoissonArrivals(1e6, 5000, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ExpectNondecreasing(a);
}

TEST(OpenLoopArrivals, PoissonMeanAndCv) {
  // 1 Mpps -> mean gap 1000 ns; exponential gaps -> CV = 1.
  const auto arrivals = MakePoissonArrivals(1e6, 50'000, 7);
  ASSERT_EQ(arrivals.size(), 50'000u);
  const GapStats gaps = GapStatsOf(arrivals);
  EXPECT_NEAR(gaps.mean_ns, 1000.0, 30.0);  // +-3%
  EXPECT_NEAR(gaps.cv, 1.0, 0.1);
  EXPECT_NEAR(OfferedPps(arrivals), 1e6, 3e4);
}

TEST(OpenLoopArrivals, OnOffDutyCycleSetsMeanRate) {
  // peak 4 Mpps at duty 0.25 -> long-run mean 1 Mpps. Short dwells (10us ON)
  // give ~1250 ON/OFF cycles in 50k arrivals, so the dwell-sum variance on
  // the realized rate is a few percent.
  const auto arrivals = MakeOnOffArrivals(4e6, 0.25, 10'000.0, 50'000, 11);
  ASSERT_EQ(arrivals.size(), 50'000u);
  ExpectNondecreasing(arrivals);
  EXPECT_NEAR(OfferedPps(arrivals), 1e6, 1e5);  // +-10%
}

TEST(OpenLoopArrivals, OnOffIsBurstierThanPoisson) {
  // The OFF gaps stretch the inter-arrival tail: gap CV well above the
  // exponential's 1.0 is the burstiness signature.
  const auto arrivals = MakeOnOffArrivals(4e6, 0.25, 50'000.0, 50'000, 11);
  const GapStats gaps = GapStatsOf(arrivals);
  EXPECT_GT(gaps.cv, 1.5);
}

TEST(OpenLoopArrivals, OnOffFullDutyDegeneratesToPoisson) {
  const auto arrivals = MakeOnOffArrivals(1e6, 1.0, 50'000.0, 20'000, 3);
  const GapStats gaps = GapStatsOf(arrivals);
  EXPECT_NEAR(gaps.mean_ns, 1000.0, 50.0);
  EXPECT_NEAR(gaps.cv, 1.0, 0.15);
}

TEST(OpenLoopArrivals, RampRateGrowsMonotonically) {
  // 0.5 Mpps -> 2 Mpps: the first quarter's mean gap must be close to the
  // start rate, the last quarter's to the end rate, and quarter means must
  // decrease monotonically in between (rate ramps up => gaps ramp down).
  const auto arrivals = MakeRampArrivals(0.5e6, 2e6, 40'000, 17);
  ASSERT_EQ(arrivals.size(), 40'000u);
  ExpectNondecreasing(arrivals);
  double quarter_mean[4];
  for (int q = 0; q < 4; ++q) {
    const std::size_t lo = 10'000 * q;
    const std::vector<u64> slice(arrivals.begin() + lo,
                                 arrivals.begin() + lo + 10'000);
    quarter_mean[q] = GapStatsOf(slice).mean_ns;
  }
  EXPECT_NEAR(quarter_mean[0], 1e9 / 0.6875e6, 200.0);  // mean rate of Q1
  EXPECT_NEAR(quarter_mean[3], 1e9 / 1.8125e6, 80.0);   // mean rate of Q4
  EXPECT_GT(quarter_mean[0], quarter_mean[1]);
  EXPECT_GT(quarter_mean[1], quarter_mean[2]);
  EXPECT_GT(quarter_mean[2], quarter_mean[3]);
}

TEST(OpenLoopArrivals, OfferedPpsEdgeCases) {
  EXPECT_EQ(OfferedPps({}), 0.0);
  EXPECT_EQ(OfferedPps({123}), 0.0);
  // Two 1000 ns gaps -> one packet per 1000 ns -> 1 Mpps.
  EXPECT_NEAR(OfferedPps({0, 1000, 2000}), 1e6, 1.0);
}

// --- Engine accounting ---------------------------------------------------

// Synthetic service model: fixed cost per burst, all packets pass. The
// scripted exceptions make queueing deterministic.
ServiceModel FixedService(u64 ns_per_burst) {
  return [ns_per_burst](ebpf::XdpContext*, u32 count,
                        ebpf::XdpAction* verdicts) {
    for (u32 i = 0; i < count; ++i) {
      verdicts[i] = ebpf::XdpAction::kPass;
    }
    return ns_per_burst;
  };
}

Trace MakeTestTrace(u32 n) {
  const auto flows = MakeFlowPopulation(64, 5);
  return MakeUniformTrace(flows, n, 6);
}

TEST(OpenLoopEngine, UnderloadAdmitsEverything) {
  const Trace trace = MakeTestTrace(10'000);
  // Service 32 packets in 1us = 32 Mpps; offer 1 Mpps -> no queueing at all.
  const auto arrivals = MakePoissonArrivals(1e6, 10'000, 21);
  OpenLoopConfig cfg;
  const OpenLoopEngine engine(cfg);
  const OpenLoopStats stats = engine.Run(trace, arrivals, FixedService(1000));
  EXPECT_EQ(stats.offered, 10'000u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.admitted, 10'000u);
  EXPECT_EQ(stats.served, 10'000u);
  EXPECT_EQ(stats.passed, 10'000u);
  EXPECT_LE(stats.max_queue_depth, cfg.queue_capacity);
}

TEST(OpenLoopEngine, OverloadTailDropsWithExactAccounting) {
  const Trace trace = MakeTestTrace(20'000);
  // Service 32 packets in 16us = 2 Mpps; offer 4 Mpps -> ~half must drop.
  const auto arrivals = MakePoissonArrivals(4e6, 20'000, 23);
  OpenLoopConfig cfg;
  cfg.queue_capacity = 256;
  const OpenLoopEngine engine(cfg);
  const OpenLoopStats stats = engine.Run(trace, arrivals, FixedService(16'000));
  EXPECT_EQ(stats.offered, 20'000u);
  EXPECT_GT(stats.dropped, 5'000u);
  EXPECT_EQ(stats.offered, stats.admitted + stats.dropped);
  EXPECT_EQ(stats.admitted, stats.served);
  EXPECT_LE(stats.max_queue_depth, 256u);
  EXPECT_EQ(stats.max_queue_depth, 256u);  // overload saturates the queue
  EXPECT_GT(stats.drop_fraction(), 0.25);
  EXPECT_LT(stats.drop_fraction(), 0.75);
  // Achieved tracks the service rate (2 Mpps), not the offered 4 Mpps.
  EXPECT_NEAR(stats.achieved_pps, 2e6, 2e5);
}

TEST(OpenLoopEngine, DeterministicGivenSeedAndModel) {
  const Trace trace = MakeTestTrace(5'000);
  const auto arrivals = MakePoissonArrivals(3e6, 5'000, 29);
  OpenLoopConfig cfg;
  cfg.queue_capacity = 128;
  const OpenLoopEngine engine(cfg);
  const OpenLoopStats a = engine.Run(trace, arrivals, FixedService(12'000));
  const OpenLoopStats b = engine.Run(trace, arrivals, FixedService(12'000));
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.max_queue_depth, b.max_queue_depth);
  EXPECT_EQ(a.last_departure_ns, b.last_departure_ns);
  EXPECT_EQ(0, std::memcmp(a.sojourn.counts, b.sojourn.counts,
                           sizeof(a.sojourn.counts)));
}

TEST(OpenLoopEngine, VerdictAccountingSumsToServed) {
  const Trace trace = MakeTestTrace(4'096);
  const auto arrivals = MakePoissonArrivals(1e6, 4'096, 31);
  // Alternate verdicts per packet position within the burst.
  ServiceModel service = [](ebpf::XdpContext*, u32 count,
                            ebpf::XdpAction* verdicts) {
    for (u32 i = 0; i < count; ++i) {
      verdicts[i] = (i % 3 == 0)   ? ebpf::XdpAction::kDrop
                    : (i % 3 == 1) ? ebpf::XdpAction::kPass
                                   : ebpf::XdpAction::kAborted;
    }
    return u64{500};
  };
  const OpenLoopEngine engine(OpenLoopConfig{});
  const OpenLoopStats stats = engine.Run(trace, arrivals, service);
  EXPECT_EQ(stats.passed + stats.dropped_verdicts + stats.aborted,
            stats.served);
  EXPECT_GT(stats.dropped_verdicts, 0u);
  EXPECT_GT(stats.aborted, 0u);
}

TEST(OpenLoopEngine, ServedLogCoversAdmittedInServiceOrder) {
  const Trace trace = MakeTestTrace(8'000);
  const auto arrivals = MakePoissonArrivals(4e6, 8'000, 37);
  std::vector<std::pair<u32, ebpf::XdpAction>> log;
  OpenLoopConfig cfg;
  cfg.queue_capacity = 64;
  cfg.served_log = &log;
  const OpenLoopEngine engine(cfg);
  const OpenLoopStats stats = engine.Run(trace, arrivals, FixedService(16'000));
  ASSERT_EQ(log.size(), stats.served);
  std::set<u32> seen;
  for (const auto& [idx, verdict] : log) {
    ASSERT_LT(idx, trace.size());
    EXPECT_TRUE(seen.insert(idx).second) << "packet served twice: " << idx;
    EXPECT_EQ(verdict, ebpf::XdpAction::kPass);
  }
}

TEST(OpenLoopEngine, ServiceCeilingClipsHarnessSpikes) {
  // One scripted 10 ms spike in an otherwise fast service. With the ceiling
  // engaged the virtual clock charges at most max_service_ns for it, so the
  // queue never floods and nothing drops; without it the same model floods
  // the bounded queue. The ceiling exists to keep OS preemptions of the
  // measuring process from masquerading as NF queueing collapse.
  const u32 n = 20'000;
  const Trace trace = MakeTestTrace(n);
  const auto arrivals = MakePoissonArrivals(2e6, n, 53);
  auto spiky = [] {
    auto bursts = std::make_shared<int>(0);
    return ServiceModel([bursts](ebpf::XdpContext*, u32 count,
                                 ebpf::XdpAction* verdicts) {
      for (u32 i = 0; i < count; ++i) {
        verdicts[i] = ebpf::XdpAction::kPass;
      }
      return ++*bursts == 50 ? u64{10'000'000} : u64{1'000};
    });
  };
  OpenLoopConfig clipped;
  clipped.queue_capacity = 1024;
  clipped.max_service_ns = 50'000;
  const OpenLoopStats with_ceiling =
      OpenLoopEngine(clipped).Run(trace, arrivals, spiky());
  EXPECT_EQ(with_ceiling.dropped, 0u);

  OpenLoopConfig honest;
  honest.queue_capacity = 1024;  // max_service_ns = 0: spike counts in full
  const OpenLoopStats no_ceiling =
      OpenLoopEngine(honest).Run(trace, arrivals, spiky());
  EXPECT_GT(no_ceiling.dropped, 1'000u);
}

// --- The coordinated-omission regression ---------------------------------

TEST(OpenLoopCoordinatedOmission, StallSurfacesInSojournNotService) {
  // Service is uniformly fast (1us per 32-packet burst) except ONE scripted
  // 5ms stall early in the run. A closed-loop harness only times service, so
  // its p99 stays microseconds: at most one burst out of hundreds is slow,
  // and the packets that queued behind the stall are never even generated.
  // The open-loop sojourn clock starts at VIRTUAL ARRIVAL, so every packet
  // that arrived during the stall carries its queue wait — milliseconds —
  // into the tail. That divergence is the whole point of the subsystem.
  const u32 n = 20'000;
  const Trace trace = MakeTestTrace(n);
  const auto arrivals = MakePoissonArrivals(2e6, n, 47);  // 10ms of traffic
  int bursts = 0;
  ServiceModel stalling = [&bursts](ebpf::XdpContext*, u32 count,
                                    ebpf::XdpAction* verdicts) {
    for (u32 i = 0; i < count; ++i) {
      verdicts[i] = ebpf::XdpAction::kPass;
    }
    ++bursts;
    return bursts == 20 ? u64{5'000'000} : u64{1'000};
  };
  OpenLoopConfig cfg;
  cfg.queue_capacity = 1u << 16;  // let the backlog build, don't drop it
  const OpenLoopEngine engine(cfg);
  const OpenLoopStats stats = engine.Run(trace, arrivals, stalling);
  ASSERT_EQ(stats.served, n);

  const obs::SloQuantiles sojourn = obs::SummarizeHist(stats.sojourn);
  const obs::SloQuantiles service = obs::SummarizeHist(stats.service);
  // Closed-loop view: p99 of service is a fast burst (the one stalled burst
  // is far below the 99th percentile of 600+ bursts).
  EXPECT_LT(service.p99_ns, 100'000.0);
  // Open-loop view: thousands of packets arrived during the 5ms stall; the
  // sojourn p99 must carry millisecond queue wait.
  EXPECT_GT(sojourn.p99_ns, 1'000'000.0);
  EXPECT_GT(sojourn.p99_ns, 50.0 * service.p99_ns);
}

// --- Shared percentile helpers (obs/percentile.h) ------------------------

TEST(OpenLoopPercentile, SortedQuantileIsLowerNearestRank) {
  const double v[] = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  // floor(q * (n-1)) indexing — the harness's historical convention.
  EXPECT_EQ(obs::SortedQuantile(v, 10, 0.0), 10.0);
  EXPECT_EQ(obs::SortedQuantile(v, 10, 0.5), 50.0);   // floor(4.5) = idx 4
  EXPECT_EQ(obs::SortedQuantile(v, 10, 0.99), 90.0);  // floor(8.91) = idx 8
  EXPECT_EQ(obs::SortedQuantile(v, 10, 1.0), 100.0);
  EXPECT_EQ(obs::SortedQuantile(v, 1, 0.99), 10.0);
  EXPECT_EQ(obs::SortedQuantile(v, 0, 0.5), 0.0);
}

TEST(OpenLoopPercentile, HistPercentileUpperEdge) {
  obs::LatencyHist hist;
  Record(hist, 100);   // bucket [64,128)
  Record(hist, 100);
  Record(hist, 1000);  // bucket [512,1024)
  Record(hist, 1000);
  // Rank is floor(q * samples) clamped >= 1; the answer is the inclusive
  // upper edge (2^b - 1) of the bucket holding that rank — the exporter's
  // historical convention, preserved by the extraction.
  EXPECT_EQ(obs::HistPercentileNs(hist, 0.50), 127u);   // rank 2 of 4
  EXPECT_EQ(obs::HistPercentileNs(hist, 0.99), 1023u);  // rank 3 of 4
  EXPECT_EQ(obs::HistPercentileNs(obs::LatencyHist{}, 0.99), 0u);
}

TEST(OpenLoopPercentile, InterpolatedStaysWithinBucket) {
  obs::LatencyHist hist;
  for (int i = 0; i < 1000; ++i) {
    Record(hist, 700);  // all in [512,1024)
  }
  const double p50 = obs::HistQuantileInterpolatedNs(hist, 0.50);
  const double p999 = obs::HistQuantileInterpolatedNs(hist, 0.999);
  EXPECT_GE(p50, 512.0);
  EXPECT_LE(p999, 1024.0);
  EXPECT_LT(p50, p999);  // interpolation separates ranks inside one bucket
  // Interpolated never exceeds the conservative upper-edge answer.
  EXPECT_LE(p999, static_cast<double>(obs::HistPercentileNs(hist, 0.999)));
}

TEST(OpenLoopPercentile, SummarizeHistPullsAllThreeQuantiles) {
  obs::LatencyHist hist;
  for (u64 v = 1; v <= 1024; ++v) {
    Record(hist, v);
  }
  const obs::SloQuantiles q = obs::SummarizeHist(hist);
  EXPECT_EQ(q.samples, 1024u);
  EXPECT_GT(q.p50_ns, 0.0);
  EXPECT_LE(q.p50_ns, q.p99_ns);
  EXPECT_LE(q.p99_ns, q.p999_ns);
}

// --- Scenario CLI plumbing (bench/bench_util.h) --------------------------

TEST(ScenarioCliArgs, ZipfFlagParsesAndStrips) {
  char a0[] = "bench";
  char a1[] = "--zipf=1.3";
  char a2[] = "--json";
  char* argv[] = {a0, a1, a2};
  int argc = 3;
  double alpha = 0.0;
  std::string nf;
  EXPECT_EQ(bench::HandleRegistryArgs(&argc, argv, &nf, &alpha), -1);
  EXPECT_DOUBLE_EQ(alpha, 1.3);
  ASSERT_EQ(argc, 2);  // --zipf consumed, --json untouched
  EXPECT_STREQ(argv[1], "--json");
}

TEST(ScenarioCliArgs, ZipfFlagRejectsGarbage) {
  for (const char* bad : {"--zipf=", "--zipf=fast", "--zipf=1.1x",
                          "--zipf=-0.5"}) {
    char a0[] = "bench";
    std::string arg = bad;
    std::vector<char> mut(arg.begin(), arg.end());
    mut.push_back('\0');
    char* argv[] = {a0, mut.data()};
    int argc = 2;
    double alpha = 9.9;
    EXPECT_EQ(bench::HandleRegistryArgs(&argc, argv, nullptr, &alpha), 1)
        << bad;
    EXPECT_DOUBLE_EQ(alpha, 9.9) << bad;  // untouched on rejection
  }
}

}  // namespace
}  // namespace pktgen
