#include "ledger.h"

#include <cstring>
#include <utility>

#include "core/arena.h"
#include "core/hash.h"
#include "nf/chain.h"
#include "nf/reconfig.h"
#include "pktgen/flowgen.h"

namespace rb {

std::vector<ebpf::FiveTuple> KeysOf(const pktgen::Trace& trace) {
  std::vector<ebpf::FiveTuple> keys(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    pktgen::Packet p = trace[i];
    ebpf::XdpContext ctx{p.frame, p.frame + ebpf::kFrameSize, 0};
    ebpf::ParseFiveTuple(ctx, &keys[i]);
  }
  return keys;
}

double MeanPer(const std::vector<u32>& samples, double per) {
  if (samples.empty() || per <= 0.0) {
    return 0.0;
  }
  double sum = 0.0;
  for (const u32 s : samples) {
    sum += s;
  }
  return sum / static_cast<double>(samples.size()) / per;
}

namespace {

void EmptyBurst(ebpf::XdpContext*, u32 count, ebpf::XdpAction* verdicts) {
  for (u32 i = 0; i < count; ++i) {
    verdicts[i] = ebpf::XdpAction::kPass;
  }
}

constexpr u32 kTableSlots = 1u << 16;
constexpr u32 kRows = 8;

// Sink that keeps the hashed results observable.
volatile u32 g_sink = 0;

}  // namespace

void (*volatile g_empty_burst)(ebpf::XdpContext*, u32,
                               ebpf::XdpAction*) = EmptyBurst;

double HashNsPerKey(const std::vector<ebpf::FiveTuple>& keys, double budget_s,
                    SpanRecorder* spans) {
  std::vector<u32> table(kTableSlots, 0);
  u32 out[kBurst];
  const u32 n = static_cast<u32>(keys.size()) / kBurst * kBurst;
  const auto reps = TimeReps(budget_s, 5, spans, "core.HashPrefetchBatch", [&] {
    u32 acc = 0;
    for (u32 i = 0; i < n; i += kBurst) {
      enetstl::HashPrefetchBatch(&keys[i], sizeof(ebpf::FiveTuple),
                                 sizeof(ebpf::FiveTuple), kBurst, 0x9747b28cu,
                                 table.data(), sizeof(u32), kTableSlots - 1,
                                 out);
      acc ^= out[0] ^ out[kBurst - 1];
    }
    g_sink = acc;
    return static_cast<double>(n);
  });
  return Median(reps);
}

double MultiHashNsPerKey(const std::vector<ebpf::FiveTuple>& keys,
                         double budget_s, SpanRecorder* spans) {
  std::vector<u32> table(kTableSlots, 0);
  u32 out[kBurst * kRows];
  const u32 n = static_cast<u32>(keys.size()) / kBurst * kBurst;
  const auto reps =
      TimeReps(budget_s, 5, spans, "core.MultiHashPrefetchBatch", [&] {
        u32 acc = 0;
        for (u32 i = 0; i < n; i += kBurst) {
          enetstl::MultiHashPrefetchBatch(
              &keys[i], sizeof(ebpf::FiveTuple), sizeof(ebpf::FiveTuple),
              kBurst, 0x5bd1e995u, kRows, kTableSlots - 1, table.data(),
              sizeof(u32), 0, out);
          acc ^= out[0] ^ out[kBurst * kRows - 1];
        }
        g_sink = acc;
        return static_cast<double>(n);
      });
  return Median(reps);
}

double ArenaAllocFreeNs(u32 population, u64 seed, double budget_s,
                        SpanRecorder* spans) {
  constexpr std::size_t kSlotBytes = 128;  // one FlowEntry slot
  constexpr u32 kPairsPerRep = 1u << 14;
  enetstl::SlabArena arena;
  std::vector<enetstl::SlabArena::Handle> live(population);
  for (u32 i = 0; i < population; ++i) {
    live[i] = arena.Allocate(1, kSlotBytes).handle;
  }
  // The free order is drawn up front so the timed loop holds only the pair.
  pktgen::Rng rng(seed);
  std::vector<u32> victims(kPairsPerRep);
  for (u32& v : victims) {
    v = static_cast<u32>(rng.NextBounded(population));
  }
  bool exhausted = false;
  const auto reps = TimeReps(budget_s, 5, spans, "core.SlabArena.pair", [&] {
    for (const u32 v : victims) {
      arena.Free(live[v]);
      const enetstl::SlabArena::Allocation a = arena.Allocate(1, kSlotBytes);
      exhausted |= a.ptr == nullptr;
      if (a.ptr != nullptr) {
        std::memset(a.ptr, 0, 8);
      }
      live[v] = a.handle;
    }
    return static_cast<double>(kPairsPerRep);
  });
  return exhausted ? 0.0 : Median(reps);
}

double TailCallNsPerStage(const pktgen::Trace& trace, double budget_s,
                          SpanRecorder* spans) {
  auto make_taps = [](u32 depth) {
    auto chain = std::make_unique<nf::ChainExecutor>("taps");
    for (u32 i = 0; i < depth; ++i) {
      chain->AddStage(std::make_unique<nf::PassthroughTap>());
    }
    return chain->Load().ok ? std::move(chain) : nullptr;
  };
  auto deep = make_taps(8);
  auto shallow = make_taps(1);
  if (deep == nullptr || shallow == nullptr) {
    return 0.0;
  }
  const u32 n = std::min<u32>(static_cast<u32>(trace.size()), 8192);
  pktgen::Trace frames(trace.begin(), trace.begin() + n);
  auto walk = [&](nf::ChainExecutor& chain) {
    u32 passed = 0;
    for (u32 i = 0; i < n; ++i) {
      ebpf::XdpContext ctx{frames[i].frame, frames[i].frame + ebpf::kFrameSize,
                           0};
      passed += chain.Process(ctx) == ebpf::XdpAction::kPass;
    }
    g_sink = passed;
    return static_cast<double>(n);
  };
  // Interleave the two depths so drift on the host hits both alike.
  std::vector<double> d8;
  std::vector<double> d1;
  const u64 deadline = NowNs() + static_cast<u64>(budget_s * 1e9);
  while (d8.size() < 5 || NowNs() < deadline) {
    const auto a = TimeReps(0.0, 1, spans, "ebpf.tail_walk.depth8",
                            [&] { return walk(*deep); });
    const auto b = TimeReps(0.0, 1, spans, "ebpf.tail_walk.depth1",
                            [&] { return walk(*shallow); });
    d8.push_back(a[0]);
    d1.push_back(b[0]);
  }
  return (Median(d8) - Median(d1)) / 7.0;
}

void ConntrackProbe(const pktgen::Trace& trace, double budget_s,
                    SpanRecorder* spans, Ledger* ledger) {
  nf::ConntrackConfig config;
  config.mode = nf::CtMode::kTrack;
  nf::ConntrackEnetstl ct(config);
  const u32 bursts = static_cast<u32>(trace.size()) / kBurst;
  pktgen::Trace frames = trace;
  std::vector<ebpf::XdpContext> ctxs(frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    ctxs[i] = ebpf::XdpContext{frames[i].frame,
                               frames[i].frame + ebpf::kFrameSize, 0};
  }
  ebpf::XdpAction verdicts[kBurst];
  std::vector<u32> advance_ns;
  u64 process_ns = 0;
  u64 packets = 0;
  u64 now = 0;
  u32 b = 0;
  const u16 burst_name = spans != nullptr ? spans->Intern("nf.conntrack.ProcessBurst") : 0;
  const u16 adv_name = spans != nullptr ? spans->Intern("nf.conntrack.AdvanceTo") : 0;
  const u64 deadline = NowNs() + static_cast<u64>(budget_s * 1e9);
  while (packets < 65536 || NowNs() < deadline) {
    for (u32 k = 0; k < 256; ++k, b = (b + 1) % bursts) {
      const u64 t0 = NowNs();
      ct.ProcessBurst(&ctxs[b * kBurst], kBurst, verdicts);
      const u64 t1 = NowNs();
      now += ct.config().table.wheel_granularity_ns;
      ct.AdvanceTo(now);
      const u64 t2 = NowNs();
      if (spans != nullptr) {
        spans->Add(burst_name, 0, t0, t1);
        spans->Add(adv_name, 0, t1, t2);
      }
      process_ns += t1 - t0;
      advance_ns.push_back(static_cast<u32>(t2 - t1));
      packets += kBurst;
    }
  }
  const nf::FlowTable::Stats& st = ct.table().stats();
  ledger->ct_burst_ns_per_pkt =
      static_cast<double>(process_ns) / static_cast<double>(packets);
  ledger->ct_advance_ns_p99 = Percentile(advance_ns, 99.0);
  ledger->advance_samples = advance_ns.size();
  const u64 lookups = ct.hits() + ct.misses();
  ledger->ct_hit_frac =
      lookups ? static_cast<double>(ct.hits()) / static_cast<double>(lookups)
              : 0.0;
  ledger->ct_created = static_cast<double>(ct.created());
  ledger->ct_torn_down = static_cast<double>(ct.torn_down());
  ledger->ct_lru_evictions = static_cast<double>(st.lru_evictions);
  ledger->ct_refused = static_cast<double>(st.insert_failures + ct.dropped());
}

u64 StateTransferSwapProbe(std::unique_ptr<nf::ConntrackEnetstl> ct, u32 swaps,
                           std::vector<u32>* swap_ns) {
  const nf::ConntrackConfig config = ct->config();
  const std::string name(ct->name());
  const u32 live = ct->table().live_flows();
  nf::ChainExecutor chain(name + "-swap");
  chain.AddStage(std::move(ct));
  if (!chain.Load().ok) {
    return swaps;
  }
  nf::ChainReconfig plane(chain);
  nf::SwapOptions options;
  options.transfer_state = true;
  u64 failed = 0;
  for (u32 i = 0; i < swaps; ++i) {
    auto fresh = std::make_unique<nf::ConntrackEnetstl>(config);
    const u64 t0 = NowNs();
    const nf::ReconfigResult r =
        plane.SwapNfWith(name, std::move(fresh), options);
    const u64 t1 = NowNs();
    swap_ns->push_back(static_cast<u32>(t1 - t0));
    auto& stage = static_cast<nf::ConntrackEnetstl&>(chain.stage(0));
    if (!r.ok() || stage.table().live_flows() != live) {
      ++failed;
    }
  }
  return failed;
}

}  // namespace rb
