// Graceful-degradation benchmark (DESIGN.md "Robustness model"): quantifies
// what the fault-tolerance machinery costs when it is idle and what it
// absorbs when faults actually fire.
//
//  1. Insert-fault sweep — the cuckoo-switch FIB is built at 95% load under
//     forced kick-chain failure rates {0, 1e-4, 1e-3}; lookup throughput is
//     measured over the resulting (possibly stash-/migration-degraded)
//     table. Invariants: every inserted key resolvable, zero stash drops,
//     size exact.
//  2. Shard failover — an RSS-sharded run at each fault rate arms a one-shot
//     worker kill (rate 0 arms nothing); the surviving workers absorb the
//     dead shard's budget. Invariants: shard counts sum exactly to the
//     offered load, failover accounting balances, keys stay resolvable.
//
// Exit status: nonzero only when a deterministic invariant fails; throughput
// numbers are informational (shared-vCPU timing is not reproducible).
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "bench/bench_util.h"
#include "core/fault_injector.h"
#include "nf/cuckoo_switch.h"
#include "pktgen/flowgen.h"
#include "pktgen/sharded_pipeline.h"

namespace {

using bench::u32;
using bench::u64;
using enetstl::FaultInjector;

int g_failures = 0;

void Check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) {
    ++g_failures;
  }
}

constexpr double kRates[] = {0.0, 1e-4, 1e-3};

nf::CuckooSwitchConfig SwitchConfig() {
  nf::CuckooSwitchConfig config;
  config.num_buckets = 1024;  // x8 slots = 8192 capacity
  return config;
}

// Builds a kernel-variant FIB at 95% load with the given forced
// kick-failure rate armed, checks losslessness, and returns it.
std::unique_ptr<nf::CuckooSwitchKernel> BuildDegraded(
    double rate, const std::vector<ebpf::FiveTuple>& resident) {
  FaultInjector::Global().Reset();
  if (rate > 0.0) {
    FaultInjector::Global().ArmProbability("cuckoo_switch.insert", rate,
                                           0xbadc0de);
  }
  auto sw = std::make_unique<nf::CuckooSwitchKernel>(SwitchConfig());
  bool inserts_ok = true;
  for (u32 i = 0; i < resident.size(); ++i) {
    inserts_ok &= sw->Insert(resident[i], i + 1);
  }
  FaultInjector::Global().Disarm("cuckoo_switch.insert");
  Check(inserts_ok, "every insert succeeded (stash/resize absorbed faults)");
  Check(sw->size() == resident.size(), "size matches inserted count");
  Check(sw->degrade_stats().stash_drops == 0, "zero stash drops");
  bool lookups_ok = true;
  for (u32 i = 0; i < resident.size(); ++i) {
    lookups_ok &= sw->Lookup(resident[i]) == std::optional<u64>(i + 1);
  }
  Check(lookups_ok, "every pre-fault key resolvable with its exact value");
  return sw;
}

void InsertFaultSweep() {
  bench::PrintHeader(
      "Degradation 1: lookup throughput over a fault-degraded FIB");
  const auto sw0 = std::make_unique<nf::CuckooSwitchKernel>(SwitchConfig());
  const u32 n = sw0->capacity() * 95 / 100;
  const auto resident = pktgen::MakeFlowPopulation(n, 404);
  const auto trace = pktgen::MakeUniformTrace(resident, 8192, 405);

  std::printf("%-12s %14s %12s %10s %10s\n", "fault_rate", "lookup(Mpps)",
              "fires", "stash", "resizes");
  for (const double rate : kRates) {
    std::printf("rate %-7g\n", rate);
    const auto sw = BuildDegraded(rate, resident);
    const u64 fires = FaultInjector::Global().fires("cuckoo_switch.insert");
    if (rate >= 1e-3) {
      // ~8 expected fires at 1e-3 over a 95% fill; at 1e-4 the expectation
      // is below one, so zero fires is a legitimate outcome there.
      Check(fires > 0, "armed fault point actually fired");
    }
    const double mpps = bench::MeasureMpps(sw->Handler(), trace);
    std::printf("%-12g %14.2f %12llu %10u %10llu\n", rate, mpps,
                static_cast<unsigned long long>(fires), sw->stash_size(),
                static_cast<unsigned long long>(
                    sw->degrade_stats().resizes_completed));
  }
}

void ShardFailoverSweep() {
  bench::PrintHeader(
      "Degradation 2: RSS shard failover under a seeded worker kill");
  constexpr u32 kWorkers = 4;
  const auto flows = pktgen::MakeFlowPopulation(2048, 406);
  const auto trace = pktgen::MakeUniformTrace(flows, 8192, 407);

  std::printf("%-12s %12s %10s %12s %14s\n", "fault_rate", "agg(Mpps)",
              "failed", "failover", "wall(ms)");
  for (const double rate : kRates) {
    std::printf("rate %-7g\n", rate);
    FaultInjector::Global().Reset();
    // The insert-fault rate also runs while each replica is built; the kill
    // itself is a one-shot so the run loses exactly one worker.
    if (rate > 0.0) {
      FaultInjector::Global().ArmProbability("cuckoo_switch.insert", rate,
                                             0xfeedface);
      FaultInjector::Global().ArmOneShot("shard.kill.1", 50);
    }
    std::vector<std::unique_ptr<nf::CuckooSwitchKernel>> replicas;
    bool built_ok = true;
    for (u32 w = 0; w < kWorkers; ++w) {
      replicas.push_back(
          std::make_unique<nf::CuckooSwitchKernel>(SwitchConfig()));
      for (u32 f = 0; f < flows.size(); ++f) {
        built_ok &= replicas[w]->Insert(flows[f], f + 1);
      }
    }
    Check(built_ok, "replica build lossless under insert faults");

    pktgen::ShardedPipeline::Options opts;
    opts.num_workers = kWorkers;
    opts.burst_size = 32;
    opts.warmup_packets = 5'000;
    opts.measure_packets = 200'000;
    opts.rss_seed = 11;
    const auto result = pktgen::ShardedPipeline(opts).MeasureScaleOut(
        [&replicas](u32 cpu) -> pktgen::ShardedPipeline::ShardProgram {
          nf::CuckooSwitchKernel* nf = replicas[cpu].get();
          return {[nf](ebpf::XdpContext* ctxs, u32 count,
                       ebpf::XdpAction* verdicts) {
                    nf->ProcessBurst(ctxs, count, verdicts);
                  },
                  nullptr};
        },
        trace, {.enabled = false});  // static RSS

    u64 shard_sum = 0, degraded_sum = 0;
    for (const auto& shard : result.shards) {
      shard_sum += shard.stats.packets;
      degraded_sum += shard.stats.degraded;
    }
    Check(shard_sum == opts.measure_packets,
          "per-shard counts sum exactly to the offered load");
    Check(result.total.packets == opts.measure_packets,
          "global packet count exact despite the kill");
    Check(degraded_sum == result.failover_packets,
          "absorbed-packet accounting balances");
    Check(result.total.dropped == 0 && result.total.aborted == 0,
          "no packet misses a resident key");
    if (rate > 0.0) {
      Check(result.failed_workers == 1, "exactly one worker was killed");
      Check(result.failover_packets > 0, "survivors absorbed the dead shard");
    } else {
      Check(result.failed_workers == 0, "no kill armed, no failover");
    }
    bool keys_ok = true;
    for (u32 w = 0; w < kWorkers; ++w) {
      for (u32 f = 0; f < flows.size(); ++f) {
        keys_ok &= replicas[w]->Lookup(flows[f]) == std::optional<u64>(f + 1);
      }
    }
    Check(keys_ok, "every pre-fault key resolvable on every replica");

    std::printf("%-12g %12.2f %10u %12llu %14.2f\n", rate,
                result.total.pps / 1e6, result.failed_workers,
                static_cast<unsigned long long>(result.failover_packets),
                result.wall_seconds * 1e3);
  }
  FaultInjector::Global().Reset();
}

}  // namespace

int main(int argc, char** argv) {
  if (const int code = bench::HandleRegistryArgs(&argc, argv); code >= 0) {
    return code;
  }
  InsertFaultSweep();
  ShardFailoverSweep();
  std::printf("\n%s (%d invariant failure%s)\n",
              g_failures == 0 ? "ALL INVARIANTS PASS" : "INVARIANT FAILURES",
              g_failures, g_failures == 1 ? "" : "s");
  return g_failures == 0 ? 0 : 1;
}
