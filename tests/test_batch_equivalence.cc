// Batched lookups must be bit-identical to the scalar paths: the batch
// pipelines reuse the exact same hash kernels, so for every NF with a batch
// API, every variant's batch result must equal its scalar result key for
// key — across hit/miss mixes, chunk-straddling sizes (n > kMaxNfBurst) and
// misaligned tails.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "apps/katran_lb.h"
#include "nf/cms.h"
#include "nf/cuckoo_filter.h"
#include "nf/cuckoo_switch.h"
#include "nf/dary_cuckoo.h"
#include "nf/vbf.h"
#include "pktgen/flowgen.h"

namespace nf {
namespace {

using ebpf::u32;
using ebpf::u64;

constexpr u32 kBatchSizes[] = {1, 3, 8, 32, 64, 100};

// Hit/miss mix: resident keys interleaved with absent ones.
std::vector<ebpf::FiveTuple> MixedKeys(
    const std::vector<ebpf::FiveTuple>& resident,
    const std::vector<ebpf::FiveTuple>& absent, u32 n) {
  std::vector<ebpf::FiveTuple> keys;
  keys.reserve(n);
  for (u32 i = 0; i < n; ++i) {
    if (i % 3 == 2) {
      keys.push_back(absent[i % absent.size()]);
    } else {
      keys.push_back(resident[i % resident.size()]);
    }
  }
  return keys;
}

template <typename MakeNf>
void ExpectLookupBatchMatchesScalar(MakeNf make_nf) {
  const auto flows = pktgen::MakeFlowPopulation(600, 41);
  const std::vector<ebpf::FiveTuple> resident(flows.begin(),
                                              flows.begin() + 400);
  const std::vector<ebpf::FiveTuple> absent(flows.begin() + 400, flows.end());
  auto nf = make_nf();
  for (u32 i = 0; i < resident.size(); ++i) {
    ASSERT_TRUE(nf->Insert(resident[i], i + 1));
  }
  for (const u32 n : kBatchSizes) {
    const auto keys = MixedKeys(resident, absent, n);
    std::vector<std::optional<u64>> batch(n);
    nf->LookupBatch(keys.data(), n, batch.data());
    for (u32 i = 0; i < n; ++i) {
      EXPECT_EQ(batch[i], nf->Lookup(keys[i])) << "n=" << n << " i=" << i;
    }
  }
}

TEST(CuckooSwitchBatch, EbpfMatchesScalar) {
  ExpectLookupBatchMatchesScalar(
      [] { return std::make_unique<CuckooSwitchEbpf>(CuckooSwitchConfig{}); });
}

TEST(CuckooSwitchBatch, KernelMatchesScalar) {
  ExpectLookupBatchMatchesScalar([] {
    return std::make_unique<CuckooSwitchKernel>(CuckooSwitchConfig{});
  });
}

TEST(CuckooSwitchBatch, EnetstlMatchesScalar) {
  ExpectLookupBatchMatchesScalar([] {
    return std::make_unique<CuckooSwitchEnetstl>(CuckooSwitchConfig{});
  });
}

TEST(DaryCuckooBatch, EbpfMatchesScalar) {
  ExpectLookupBatchMatchesScalar(
      [] { return std::make_unique<DaryCuckooEbpf>(DaryCuckooConfig{}); });
}

TEST(DaryCuckooBatch, KernelMatchesScalar) {
  ExpectLookupBatchMatchesScalar(
      [] { return std::make_unique<DaryCuckooKernel>(DaryCuckooConfig{}); });
}

TEST(DaryCuckooBatch, EnetstlMatchesScalar) {
  ExpectLookupBatchMatchesScalar(
      [] { return std::make_unique<DaryCuckooEnetstl>(DaryCuckooConfig{}); });
}

template <typename MakeNf>
void ExpectContainsBatchMatchesScalar(MakeNf make_nf) {
  const auto flows = pktgen::MakeFlowPopulation(600, 42);
  const std::vector<ebpf::FiveTuple> resident(flows.begin(),
                                              flows.begin() + 400);
  const std::vector<ebpf::FiveTuple> absent(flows.begin() + 400, flows.end());
  auto nf = make_nf();
  for (const auto& key : resident) {
    ASSERT_TRUE(nf->Add(key));
  }
  for (const u32 n : kBatchSizes) {
    const auto keys = MixedKeys(resident, absent, n);
    // std::vector<bool> has no usable data(); use a plain buffer.
    std::unique_ptr<bool[]> out(new bool[n]);
    nf->ContainsBatch(keys.data(), n, out.get());
    for (u32 i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], nf->Contains(keys[i])) << "n=" << n << " i=" << i;
    }
  }
}

TEST(CuckooFilterBatch, EbpfMatchesScalar) {
  ExpectContainsBatchMatchesScalar(
      [] { return std::make_unique<CuckooFilterEbpf>(CuckooFilterConfig{}); });
}

TEST(CuckooFilterBatch, KernelMatchesScalar) {
  ExpectContainsBatchMatchesScalar([] {
    return std::make_unique<CuckooFilterKernel>(CuckooFilterConfig{});
  });
}

TEST(CuckooFilterBatch, EnetstlMatchesScalar) {
  ExpectContainsBatchMatchesScalar([] {
    return std::make_unique<CuckooFilterEnetstl>(CuckooFilterConfig{});
  });
}

// CMS: a batch-updated sketch must hold exactly the counters of a
// scalar-updated one (same keys, same order, same increments).
template <typename MakeNf>
void ExpectUpdateBatchMatchesScalar(MakeNf make_nf, u32 rows) {
  const auto flows = pktgen::MakeFlowPopulation(300, 43);
  CmsConfig config;
  config.rows = rows;
  auto scalar = make_nf(config);
  auto batched = make_nf(config);
  for (const u32 n : kBatchSizes) {
    std::vector<ebpf::FiveTuple> keys(flows.begin(), flows.begin() + n);
    for (const auto& key : keys) {
      scalar->Update(&key, sizeof(key), 2);
    }
    batched->UpdateBatch(keys.data(), sizeof(ebpf::FiveTuple),
                         sizeof(ebpf::FiveTuple), n, 2);
    for (const auto& flow : flows) {
      EXPECT_EQ(batched->Query(&flow, sizeof(flow)),
                scalar->Query(&flow, sizeof(flow)))
          << "rows=" << rows << " n=" << n;
    }
  }
}

TEST(CmsBatch, EbpfMatchesScalar) {
  for (const u32 rows : {2u, 4u}) {
    ExpectUpdateBatchMatchesScalar(
        [](const CmsConfig& c) { return std::make_unique<CmsEbpf>(c); }, rows);
  }
}

TEST(CmsBatch, KernelMatchesScalar) {
  for (const u32 rows : {2u, 4u}) {
    ExpectUpdateBatchMatchesScalar(
        [](const CmsConfig& c) { return std::make_unique<CmsKernel>(c); },
        rows);
  }
}

TEST(CmsBatch, EnetstlMatchesScalar) {
  // rows <= 2 takes the CRC hash_prefetch_batch path, rows > 2 the
  // multi_hash_prefetch_batch path; both must match their scalar twins.
  for (const u32 rows : {1u, 2u, 4u, 8u}) {
    ExpectUpdateBatchMatchesScalar(
        [](const CmsConfig& c) { return std::make_unique<CmsEnetstl>(c); },
        rows);
  }
}

// VBF: LookupSetsBatch must equal LookupSets key for key, for row counts on
// both the 4-lane and the 8-lane hash paths, for burst sizes around one
// chunk, and for a table that was never primed.
template <typename Vbf>
void ExpectLookupSetsBatchMatchesScalar() {
  const auto flows = pktgen::MakeFlowPopulation(600, 46);
  const std::vector<ebpf::FiveTuple> resident(flows.begin(),
                                              flows.begin() + 400);
  const std::vector<ebpf::FiveTuple> absent(flows.begin() + 400, flows.end());
  for (const u32 rows : {1u, 2u, 4u, 5u, 8u}) {
    VbfConfig config;
    config.rows = rows;
    Vbf unprimed(config);
    Vbf primed(config);
    for (u32 i = 0; i < resident.size(); ++i) {
      primed.AddToSet(&resident[i], sizeof(resident[i]), i % 16);
    }
    for (Vbf* vbf : {&unprimed, &primed}) {
      for (const u32 n : {0u, 1u, 31u, 32u, 33u, 100u}) {
        const auto keys = MixedKeys(resident, absent, n);
        std::vector<u32> out(n + 1, 0xdeadbeefu);
        vbf->LookupSetsBatch(keys.data(), n, out.data());
        for (u32 i = 0; i < n; ++i) {
          ASSERT_EQ(out[i], vbf->LookupSets(&keys[i], sizeof(keys[i])))
              << "rows=" << rows << " n=" << n << " i=" << i
              << (vbf == &unprimed ? " unprimed" : " primed");
        }
        EXPECT_EQ(out[n], 0xdeadbeefu) << "wrote past n=" << n;
      }
    }
  }
}

TEST(VbfBatch, EbpfMatchesScalar) {
  ExpectLookupSetsBatchMatchesScalar<VbfEbpf>();
}

TEST(VbfBatch, KernelMatchesScalar) {
  ExpectLookupSetsBatchMatchesScalar<VbfKernel>();
}

TEST(VbfBatch, EnetstlMatchesScalar) {
  ExpectLookupSetsBatchMatchesScalar<VbfEnetstl>();
}

// ProcessBurst must produce the same verdict sequence as per-packet Process,
// including XDP_ABORTED for unparseable frames.
std::vector<pktgen::Packet> MakeBurstTrace(u32 n) {
  const auto flows = pktgen::MakeFlowPopulation(64, 44);
  auto trace = pktgen::MakeUniformTrace(flows, n, 45);
  // Corrupt every 7th frame's ethertype so parsing fails.
  for (u32 i = 6; i < trace.size(); i += 7) {
    trace[i].frame[12] = 0x86;
    trace[i].frame[13] = 0xdd;
  }
  return trace;
}

void ExpectBurstVerdictsMatchScalar(NetworkFunction& burst_nf,
                                    NetworkFunction& scalar_nf, u32 n) {
  auto trace_a = MakeBurstTrace(n);
  auto trace_b = trace_a;
  std::vector<ebpf::XdpContext> ctxs(n);
  for (u32 i = 0; i < n; ++i) {
    ctxs[i] = ebpf::XdpContext{trace_a[i].frame,
                               trace_a[i].frame + ebpf::kFrameSize, 0};
  }
  std::vector<ebpf::XdpAction> burst_verdicts(n);
  burst_nf.ProcessBurst(ctxs.data(), n, burst_verdicts.data());
  for (u32 i = 0; i < n; ++i) {
    ebpf::XdpContext ctx{trace_b[i].frame, trace_b[i].frame + ebpf::kFrameSize,
                         0};
    EXPECT_EQ(burst_verdicts[i], scalar_nf.Process(ctx)) << "i=" << i;
  }
}

TEST(ProcessBurst, CuckooSwitchVerdictsMatchScalar) {
  const auto flows = pktgen::MakeFlowPopulation(64, 44);
  for (int variant = 0; variant < 3; ++variant) {
    auto make = [&]() -> std::unique_ptr<CuckooSwitchBase> {
      CuckooSwitchConfig config;
      std::unique_ptr<CuckooSwitchBase> sw;
      switch (variant) {
        case 0: sw = std::make_unique<CuckooSwitchEbpf>(config); break;
        case 1: sw = std::make_unique<CuckooSwitchKernel>(config); break;
        default: sw = std::make_unique<CuckooSwitchEnetstl>(config); break;
      }
      for (u32 i = 0; i < 32; ++i) {
        sw->Insert(flows[i], i);
      }
      return sw;
    };
    auto burst_nf = make();
    auto scalar_nf = make();
    ExpectBurstVerdictsMatchScalar(*burst_nf, *scalar_nf, 100);
  }
}

TEST(ProcessBurst, CmsVerdictsAndCountersMatchScalar) {
  CmsConfig config;
  config.rows = 4;
  CmsEnetstl burst_nf(config);
  CmsEnetstl scalar_nf(config);
  ExpectBurstVerdictsMatchScalar(burst_nf, scalar_nf, 100);
  // The burst updates must also leave identical sketch contents.
  const auto flows = pktgen::MakeFlowPopulation(64, 44);
  for (const auto& flow : flows) {
    EXPECT_EQ(burst_nf.Query(&flow, sizeof(flow)),
              scalar_nf.Query(&flow, sizeof(flow)));
  }
}

TEST(ProcessBurst, KatranVerdictsAndCountersMatchScalar) {
  for (const auto core : {apps::CoreKind::kOrigin, apps::CoreKind::kEnetstl}) {
    apps::KatranLb burst_nf(core, apps::KatranConfig{});
    apps::KatranLb scalar_nf(core, apps::KatranConfig{});
    // Repeated flows within one burst: the batch path must still count the
    // second packet of a new flow as a hit, like per-packet processing.
    ExpectBurstVerdictsMatchScalar(burst_nf, scalar_nf, 150);
    EXPECT_EQ(burst_nf.hits(), scalar_nf.hits());
    EXPECT_EQ(burst_nf.misses(), scalar_nf.misses());
    EXPECT_GT(burst_nf.hits() + burst_nf.misses(), 0u);
    // Every parsed packet is accounted exactly once.
    u32 parsed = 0;
    auto trace = MakeBurstTrace(150);
    for (auto& p : trace) {
      ebpf::XdpContext ctx{p.frame, p.frame + ebpf::kFrameSize, 0};
      ebpf::FiveTuple t;
      parsed += ebpf::ParseFiveTuple(ctx, &t) ? 1 : 0;
    }
    EXPECT_EQ(burst_nf.hits() + burst_nf.misses(), parsed);
  }
}

// Backend decisions of the batched Katran path must equal the scalar path's
// for the same connection sequence (deterministic Maglev ring).
TEST(ProcessBurst, KatranBackendDecisionsMatchScalar) {
  apps::KatranLb burst_nf(apps::CoreKind::kEnetstl, apps::KatranConfig{});
  apps::KatranLb scalar_nf(apps::CoreKind::kEnetstl, apps::KatranConfig{});
  auto trace = MakeBurstTrace(100);
  std::vector<ebpf::XdpContext> ctxs(trace.size());
  for (u32 i = 0; i < trace.size(); ++i) {
    ctxs[i] = ebpf::XdpContext{trace[i].frame,
                               trace[i].frame + ebpf::kFrameSize, 0};
  }
  std::vector<ebpf::XdpAction> verdicts(trace.size());
  burst_nf.ProcessBurst(ctxs.data(), static_cast<u32>(trace.size()),
                        verdicts.data());
  for (auto& p : trace) {
    ebpf::XdpContext ctx{p.frame, p.frame + ebpf::kFrameSize, 0};
    (void)scalar_nf.Process(ctx);
  }
  // After identical connection sequences, both tables map every flow to the
  // same backend.
  const auto flows = pktgen::MakeFlowPopulation(64, 44);
  for (const auto& flow : flows) {
    EXPECT_EQ(burst_nf.PickBackend(flow), scalar_nf.PickBackend(flow));
  }
}

}  // namespace
}  // namespace nf
