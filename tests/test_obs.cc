// Tests for the telemetry plane: scope registry, 1/N sampling countdown
// (scalar and burst paths share one rate), percpu histogram accounting and
// snapshots, ring-buffer event emission, top-K flow sampling, and the
// exporter's percentiles/JSON. Sampling-state tests run their bodies on a
// fresh thread so the thread-local countdown starts from a known state.
#include "obs/telemetry.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/exporter.h"
#include "obs/flow_sampler.h"

namespace obs {
namespace {

// Runs `fn` on a new thread: a fresh thread-local sampling countdown and
// sequence counter, so tests see deterministic 1/N behavior.
template <typename Fn>
void RunOnFreshThread(Fn&& fn) {
  std::thread t(std::forward<Fn>(fn));
  t.join();
}

std::vector<ObsEvent> DrainEvents(Telemetry& telemetry) {
  std::vector<ObsEvent> events;
  telemetry.ring().Consume([&](const void* data, ebpf::u32 len) {
    if (len == sizeof(ObsEvent)) {
      ObsEvent event;
      std::memcpy(&event, data, sizeof(event));
      events.push_back(event);
    }
  });
  return events;
}

TEST(ObsCompiledOut, ApiIsInertWhenDisabled) {
  if (kCompiledIn) {
    GTEST_SKIP() << "ENETSTL_OBS=ON build";
  }
  Telemetry telemetry;
  EXPECT_EQ(telemetry.RegisterScope("x"), kInvalidScope);
  telemetry.Enable(1);
  EXPECT_FALSE(telemetry.enabled());
  EXPECT_FALSE(telemetry.ShouldSample());
  telemetry.RecordBurst(0, 100, 8, [](u32) { return 1u; });
  EXPECT_EQ(telemetry.Snapshot(0).samples, 0u);
}

TEST(ObsScopes, RegistrationIsIdempotentAndCapped) {
  if (!kCompiledIn) {
    GTEST_SKIP() << "ENETSTL_OBS=OFF build";
  }
  Telemetry telemetry;
  const u16 a = telemetry.RegisterScope("alpha");
  const u16 b = telemetry.RegisterScope("beta");
  EXPECT_NE(a, kInvalidScope);
  EXPECT_NE(b, a);
  EXPECT_EQ(telemetry.RegisterScope("alpha"), a);
  EXPECT_EQ(telemetry.ScopeName(a), "alpha");
  EXPECT_EQ(telemetry.ScopeName(kInvalidScope), "");

  for (u32 i = telemetry.ScopeNames().size(); i < kMaxScopes; ++i) {
    EXPECT_NE(telemetry.RegisterScope("fill-" + std::to_string(i)),
              kInvalidScope);
  }
  // A full table still finds the names it holds, and those are no refusal.
  EXPECT_EQ(telemetry.RegisterScope("alpha"), a);
  EXPECT_EQ(telemetry.scopes_refused(), 0u);
  EXPECT_EQ(telemetry.RegisterScope("overflow"), kInvalidScope);
  EXPECT_EQ(telemetry.ScopeNames().size(), kMaxScopes);
  // The 65th distinct name is counted, and the count is exported.
  EXPECT_EQ(telemetry.scopes_refused(), 1u);
  const ObsReport report = CollectObsReport(telemetry);
  EXPECT_EQ(report.scopes_refused, 1u);
  EXPECT_NE(ObsReportJson(report).find("\"scopes_refused\": 1"),
            std::string::npos);
}

TEST(ObsSampling, OneInEveryNAfterWarmup) {
  if (!kCompiledIn) {
    GTEST_SKIP() << "ENETSTL_OBS=OFF build";
  }
  RunOnFreshThread([] {
    Telemetry telemetry;
    telemetry.Enable(4);
    // Fresh thread: countdown lazily initializes to 4, so exactly every
    // fourth call fires, starting with the fourth.
    int fired = 0;
    for (int i = 1; i <= 400; ++i) {
      if (telemetry.ShouldSample()) {
        ++fired;
        EXPECT_EQ(i % 4, 0) << "sample fired off-cadence at call " << i;
      }
    }
    EXPECT_EQ(fired, 100);

    telemetry.Disable();
    for (int i = 0; i < 100; ++i) {
      EXPECT_FALSE(telemetry.ShouldSample());
    }
  });
}

TEST(ObsSampling, EveryZeroClampsToAlways) {
  if (!kCompiledIn) {
    GTEST_SKIP() << "ENETSTL_OBS=OFF build";
  }
  RunOnFreshThread([] {
    Telemetry telemetry;
    telemetry.Enable(0);
    EXPECT_EQ(telemetry.sample_every(), 1u);
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE(telemetry.ShouldSample());
    }
  });
}

TEST(ObsHist, Log2BucketEdges) {
  EXPECT_EQ(Log2Bucket(0), 0u);
  EXPECT_EQ(Log2Bucket(1), 1u);
  EXPECT_EQ(Log2Bucket(2), 2u);
  EXPECT_EQ(Log2Bucket(3), 2u);
  EXPECT_EQ(Log2Bucket(4), 3u);
  EXPECT_EQ(Log2Bucket((1ull << 40)), 41u);
  EXPECT_EQ(Log2Bucket(~0ull), LatencyHist::kBuckets - 1);
}

TEST(ObsHist, SnapshotMergesAllCpus) {
  if (!kCompiledIn) {
    GTEST_SKIP() << "ENETSTL_OBS=OFF build";
  }
  Telemetry telemetry;
  const u16 scope = telemetry.RegisterScope("merge");
  const u32 cpu_before = ebpf::CurrentCpu();
  ebpf::SetCurrentCpu(0);
  telemetry.RecordSample(scope, 100, 1);
  ebpf::SetCurrentCpu(2);
  telemetry.RecordSample(scope, 1000, 2);
  ebpf::SetCurrentCpu(cpu_before);

  const LatencyHist merged = telemetry.Snapshot(scope);
  EXPECT_EQ(merged.samples, 2u);
  EXPECT_EQ(merged.total_ns, 1100u);
  EXPECT_EQ(merged.counts[Log2Bucket(100)], 1u);
  EXPECT_EQ(merged.counts[Log2Bucket(1000)], 1u);

  telemetry.ResetCounts();
  EXPECT_EQ(telemetry.Snapshot(scope).samples, 0u);
}

TEST(ObsBurst, SamplesMatchScalarRateAndEmitPerSlotEvents) {
  if (!kCompiledIn) {
    GTEST_SKIP() << "ENETSTL_OBS=OFF build";
  }
  RunOnFreshThread([] {
    Telemetry telemetry;
    const u16 scope = telemetry.RegisterScope("burst");
    telemetry.Enable(4);
    // Fresh countdown initializes to 4: a burst of 8 packets samples slots 3
    // and 7 (the 4th and 8th events), at the burst-average latency.
    telemetry.RecordBurst(scope, /*burst_ns=*/800, /*count=*/8,
                          [](u32 slot) { return 100 + slot; });
    const LatencyHist hist = telemetry.Snapshot(scope);
    EXPECT_EQ(hist.samples, 2u);
    EXPECT_EQ(hist.total_ns, 200u);  // 2 samples at avg 100ns
    EXPECT_EQ(hist.counts[Log2Bucket(100)], 2u);

    const std::vector<ObsEvent> events = DrainEvents(telemetry);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].scope, scope);
    EXPECT_EQ(events[0].kind, ObsEvent::kBurst);
    EXPECT_EQ(events[0].flow, 103u);
    EXPECT_EQ(events[0].latency_ns, 100u);
    EXPECT_EQ(events[1].flow, 107u);
    EXPECT_LT(events[0].seq, events[1].seq);
  });
}

TEST(ObsBurst, ShortBurstOnlyAdvancesCountdown) {
  if (!kCompiledIn) {
    GTEST_SKIP() << "ENETSTL_OBS=OFF build";
  }
  RunOnFreshThread([] {
    Telemetry telemetry;
    const u16 scope = telemetry.RegisterScope("short-burst");
    telemetry.Enable(100);
    // 8 < 100: no sample, countdown drops to 92.
    telemetry.RecordBurst(scope, 800, 8, [](u32) { return 1u; });
    EXPECT_EQ(telemetry.Snapshot(scope).samples, 0u);
    EXPECT_TRUE(DrainEvents(telemetry).empty());
    // The next 92 packets include exactly the one sampled slot (the last).
    telemetry.RecordBurst(scope, 9200, 92, [](u32 slot) { return slot; });
    EXPECT_EQ(telemetry.Snapshot(scope).samples, 1u);
    const std::vector<ObsEvent> events = DrainEvents(telemetry);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].flow, 91u);
  });
}

TEST(ObsBurst, InvalidScopeAndDisabledAreNoOps) {
  if (!kCompiledIn) {
    GTEST_SKIP() << "ENETSTL_OBS=OFF build";
  }
  RunOnFreshThread([] {
    Telemetry telemetry;
    const u16 scope = telemetry.RegisterScope("noop");
    telemetry.Enable(1);
    telemetry.RecordBurst(kInvalidScope, 100, 8, [](u32) { return 1u; });
    telemetry.Disable();
    telemetry.RecordBurst(scope, 100, 8, [](u32) { return 1u; });
    EXPECT_TRUE(DrainEvents(telemetry).empty());
    EXPECT_EQ(telemetry.Snapshot(scope).samples, 0u);
  });
}

TEST(ObsScalarSample, RaiiRecordsIntoGlobalTelemetry) {
  if (!kCompiledIn) {
    GTEST_SKIP() << "ENETSTL_OBS=OFF build";
  }
  Telemetry& telemetry = Telemetry::Global();
  const u16 scope = telemetry.RegisterScope("test/raii");
  ASSERT_NE(scope, kInvalidScope);
  const u64 samples_before = telemetry.Snapshot(scope).samples;
  RunOnFreshThread([&telemetry, scope] {
    telemetry.Enable(1);
    {
      ScalarSample sample(scope);
      EXPECT_TRUE(sample.armed());
      sample.set_flow(7);
    }
    {
      ScalarSample invalid(kInvalidScope);
      EXPECT_FALSE(invalid.armed());
    }
    telemetry.Disable();
    {
      ScalarSample off(scope);
      EXPECT_FALSE(off.armed());
    }
  });
  EXPECT_EQ(telemetry.Snapshot(scope).samples, samples_before + 1);
}

TEST(ObsPercentile, UpperEdgeOfQuantileBucket) {
  LatencyHist hist;
  EXPECT_EQ(HistPercentileNs(hist, 0.5), 0u);  // empty

  hist.counts[3] = 90;  // [4, 8) ns
  hist.counts[10] = 10;  // [512, 1024) ns
  hist.samples = 100;
  EXPECT_EQ(HistPercentileNs(hist, 0.5), 7u);
  EXPECT_EQ(HistPercentileNs(hist, 0.9), 7u);
  EXPECT_EQ(HistPercentileNs(hist, 0.99), 1023u);
  EXPECT_EQ(HistPercentileNs(hist, 1.0), 1023u);
}

TEST(ObsFlowSampler, TopKRanksHeavyFlowFirst) {
  FlowSampler sampler(8);
  ObsEvent event;
  for (int i = 0; i < 100; ++i) {
    event.flow = 7;
    sampler.Ingest(event);
  }
  for (u32 flow = 100; flow < 120; ++flow) {
    event.flow = flow;
    for (int i = 0; i < 5; ++i) {
      sampler.Ingest(event);
    }
  }
  EXPECT_EQ(sampler.events(), 200u);

  const std::vector<nf::HkTopEntry> top = sampler.TopK();
  ASSERT_FALSE(top.empty());
  EXPECT_LE(top.size(), 8u);
  EXPECT_EQ(top[0].flow, 7u);
  EXPECT_GE(top[0].est, 50u);  // sketch estimate of the 100-event flow
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_LE(top[i].est, top[i - 1].est);
  }
}

TEST(ObsFlowSampler, IgnoresMalformedRecordsAndUnknownFlows) {
  FlowSampler sampler(8);
  const u64 not_an_event = 0;
  EXPECT_FALSE(sampler.IngestRecord(&not_an_event, sizeof(not_an_event)));
  EXPECT_EQ(sampler.events(), 0u);

  ObsEvent event;
  event.flow = 0;  // unknown flow (unparsable frame): well-formed but skipped
  EXPECT_TRUE(sampler.IngestRecord(&event, sizeof(event)));
  EXPECT_EQ(sampler.events(), 0u);
  EXPECT_TRUE(sampler.TopK().empty());
}

TEST(ObsExporter, ReportAndJsonCarryScopesAndTopFlows) {
  if (!kCompiledIn) {
    GTEST_SKIP() << "ENETSTL_OBS=OFF build";
  }
  Telemetry telemetry;
  const u16 scope = telemetry.RegisterScope("export/scope");
  telemetry.RecordSample(scope, 500, 9);
  telemetry.RecordSample(scope, 700, 9);

  FlowSampler sampler(8);
  ObsEvent event;
  event.flow = 9;
  sampler.Ingest(event);

  const ObsReport report = CollectObsReport(telemetry, &sampler);
  ASSERT_EQ(report.scopes.size(), 1u);  // only scopes with samples appear
  EXPECT_EQ(report.scopes[0].name, "export/scope");
  EXPECT_EQ(report.scopes[0].samples, 2u);
  EXPECT_EQ(report.scopes[0].avg_ns, 600u);
  ASSERT_EQ(report.top_flows.size(), 1u);
  EXPECT_EQ(report.top_flows[0].flow, 9u);

  const std::string json = ObsReportJson(report);
  EXPECT_NE(json.find("\"compiled_in\""), std::string::npos);
  EXPECT_NE(json.find("\"export/scope\""), std::string::npos);
  EXPECT_NE(json.find("\"top_flows\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

}  // namespace
}  // namespace obs
