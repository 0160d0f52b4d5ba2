// Skew-resilient scale-out engine: ShardedPipeline::MeasureScaleOut.
//
// Work model. The trace is pre-split into kRssIndirectionSize per-slot
// sub-traces (the flow-group = indirection-slot granularity of real RSS
// re-steering), and the measured-packet budget is divided across slots
// proportionally to slot depth — so the offered load follows the flow skew,
// and the per-slot quotas sum exactly to measure_packets. Each worker owns
// the slots the live indirection table maps to it and replays each owned
// slot's sub-trace cyclically, burst by burst.
//
// Ownership/migration protocol (per-flow order proof in DESIGN.md §11):
//  * only the controller (or a dying worker) rewrites the table, via CAS;
//  * a worker polls the steering generation once per burst boundary; on a
//    change it scans its owned slots and donates any it lost through the
//    new owner's MPSC handoff ring (reserve/copy/submit);
//  * the donor stops serving a slot before Submit (release); the adopter
//    starts after Consume (acquire) — every packet the adopter serves
//    happens-after every packet the donor served, so no flow ever observes
//    reordering, and no packet is lost or served twice (the descriptor
//    carries the exact replay cursor and residual quota);
//  * a full ring just defers the donation: the donor keeps serving the slot
//    and retries at the next burst boundary.
//
// Failover composes with migration: a worker whose "shard.kill.<cpu>" fault
// fires donates every owned slot to the least-loaded survivors through the
// same rings (re-steering the table itself via CAS), then retires; the
// controller sweeps retired workers' rings so no descriptor is stranded. A
// failover donation marks its descriptor, the mark follows the slot through
// every later re-steer, and packets served from a marked slot count as
// degraded. If nobody survives, the residual budget is dropped and
// total.packets < measure_packets (an honest shortfall, never a hang).
//
// Per-burst bookkeeping is kept off shared cache lines: exhausted runs are
// popped from the head of the run list, each slot's backlog entry has its
// own line, and the served count reaches the shared countdown only when a
// run exhausts, the worker idles, donates, or exits.
//
// Memory: every worker binds its own SlabArena for slot-run bookkeeping —
// no datapath allocation crosses a shard boundary (cross_shard_ops() == 0
// is a test invariant).
#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/arena.h"
#include "core/fault_injector.h"
#include "ebpf/helper.h"
#include "obs/imbalance.h"
#include "obs/telemetry.h"
#include "pktgen/flow_migration.h"
#include "pktgen/handoff_ring.h"
#include "pktgen/sharded_pipeline.h"

#if defined(__linux__)
#include <time.h>
#endif

namespace pktgen {

namespace {

using enetstl::SlabArena;
using WallClock = std::chrono::steady_clock;

double ThreadCpuSeconds() {
#if defined(__linux__)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             WallClock::now().time_since_epoch())
      .count();
}

inline ebpf::XdpContext SlotContext(Packet& packet) {
  ebpf::XdpContext ctx;
  ctx.data = packet.frame;
  ctx.data_end = packet.frame + ebpf::kFrameSize;
  ctx.rx_timestamp_ns = 0;
  return ctx;
}

// Worker-local replay state of one owned flow-group, allocated from the
// worker's own arena (the shard-ownership rule under test).
struct SlotRun {
  u32 slot = 0;
  bool failover = false;  // donated by a dying shard at some point
  u64 cursor = 0;     // replay position within the slot's sub-trace
  u64 remaining = 0;  // unserved packet quota
  SlotRun* next = nullptr;
  SlabArena::Handle self = SlabArena::kNullHandle;
};
constexpr u64 kSlotRunShape = 0x510f'0001;

// State shared by the workers, the controller, and the coordinator.
struct ScaleOutShared {
  u32 workers = 0;
  std::vector<Trace>* slot_traces = nullptr;  // [kRssIndirectionSize]
  LiveRssIndirection* table = nullptr;
  std::vector<std::unique_ptr<HandoffRing>>* rings = nullptr;  // per worker
  // Controller's (approximate) view of per-slot backlog; each entry is
  // written only by the slot's current owner (the handoff edge orders
  // writer successions). One cache line per entry: slot s starts on worker
  // s % workers, so packed entries would put every worker on every line.
  struct alignas(SlabArena::kCacheLineSize) SlotBacklog {
    std::atomic<u64> remaining{0};
  };
  std::array<SlotBacklog, kRssIndirectionSize> slot_remaining{};
  // Unserved packets over all slots, less what workers have served but not
  // yet published (see ScaleOutWorker::Publish); 0 ends the run.
  std::atomic<u64> global_remaining{0};
  // Start barrier.
  std::atomic<u32> ready{0};
  std::atomic<bool> go{false};
  // Liveness. alive[w]: worker is serving (death-donation targets must be
  // alive). retired[w]: worker exited; the controller takes over as the
  // sole consumer of its ring (release/acquire hand-off on the flag).
  std::array<std::atomic<bool>, ebpf::kNumPossibleCpus> alive{};
  std::array<std::atomic<bool>, ebpf::kNumPossibleCpus> retired{};
  // Residual budget of flow-groups dying workers donated away, counted once
  // per group (at the donation that marks it), and the part of it later
  // dropped because nobody survived to serve it.
  std::atomic<u64> failover_budget{0};
  std::atomic<u64> failover_dropped{0};
  std::atomic<u64> failover_donations{0};

  // Current backlog estimate per worker, from the controller's-eye view.
  void BacklogByWorker(std::vector<u64>& backlog) const {
    backlog.assign(workers, 0);
    for (u32 s = 0; s < kRssIndirectionSize; ++s) {
      const u64 rem =
          slot_remaining[s].remaining.load(std::memory_order_relaxed);
      if (rem == 0) {
        continue;
      }
      const u32 owner = table->Owner(s);
      if (owner < workers) {
        backlog[owner] += rem;
      }
    }
  }

  // Drops a flow-group's residual budget (no survivor can serve it).
  void DropSlot(u32 slot, u64 remaining, bool failover) {
    slot_remaining[slot].remaining.store(0, std::memory_order_relaxed);
    if (failover) {
      failover_dropped.fetch_add(remaining, std::memory_order_relaxed);
    }
    global_remaining.fetch_sub(remaining, std::memory_order_acq_rel);
  }
};

struct ScaleOutWorker {
  // Wiring (set by the coordinator).
  u32 cpu = 0;
  u32 burst = 1;
  u64 warmup_packets = 0;
  std::string kill_point;
  ShardedPipeline::BurstHandler handler;
  ScaleOutShared* shared = nullptr;
  ebpf::u16 obs_scope = obs::kInvalidScope;

  // Results (read by the coordinator after join).
  double busy_seconds = 0.0;
  ThroughputStats stats;
  bool failed = false;
  u32 slots_initial = 0;
  u32 slots_adopted = 0;
  u32 slots_donated = 0;
  u64 donate_retries = 0;
  u64 initial_depth = 0;  // distinct trace packets on initially owned slots
  SlabArena arena;

  // Owned runs; every run on the list has remaining > 0 between bursts.
  SlotRun* head_ = nullptr;
  // Packets served but not yet subtracted from shared->global_remaining.
  // They always belong to runs this worker still holds, so the countdown
  // still reaches 0 exactly when every run has.
  u64 unpublished_ = 0;

  void Publish() {
    if (unpublished_ != 0) {
      shared->global_remaining.fetch_sub(unpublished_,
                                         std::memory_order_acq_rel);
      unpublished_ = 0;
    }
  }

  SlotRun* NewRun(u32 slot, u64 cursor, u64 remaining, bool failover) {
    SlabArena::Allocation alloc = arena.Allocate(kSlotRunShape, sizeof(SlotRun));
    SlotRun* run;
    if (alloc.ptr != nullptr) {
      run = new (alloc.ptr) SlotRun;
      run->self = alloc.handle;
    } else {
      run = new SlotRun;  // arena exhausted (not expected at 128 slots)
    }
    run->slot = slot;
    run->failover = failover;
    run->cursor = cursor;
    run->remaining = remaining;
    run->next = head_;
    head_ = run;
    return run;
  }

  void FreeRun(SlotRun* run) {
    if (run->self != SlabArena::kNullHandle) {
      const SlabArena::Handle h = run->self;
      run->~SlotRun();
      arena.Free(h);
    } else {
      delete run;
    }
  }

  // Descriptor handing `run` to another shard at the current generation.
  SlotHandoff Handoff(const SlotRun& run) const {
    return SlotHandoff{.slot = run.slot,
                       .donor = static_cast<u16>(cpu),
                       .failover = run.failover,
                       .cursor = run.cursor,
                       .remaining = run.remaining,
                       .generation = shared->table->Generation()};
  }

  void AdoptInitial(const std::vector<u64>& quota) {
    for (u32 s = 0; s < kRssIndirectionSize; ++s) {
      if (shared->table->Owner(s) != cpu) {
        continue;
      }
      initial_depth += (*shared->slot_traces)[s].size();
      if (quota[s] > 0) {
        NewRun(s, 0, quota[s], false);
        ++slots_initial;
      }
    }
  }

  void Warmup() {
    if (head_ == nullptr || warmup_packets == 0 || !handler) {
      return;
    }
    ebpf::XdpContext ctxs[kMaxBurstSize];
    ebpf::XdpAction verdicts[kMaxBurstSize];
    // Separate warm-up cursors: the measured replay must start every slot at
    // cursor 0 no matter how warm-up strided, so static and migrated runs
    // see identical per-slot packet sequences.
    u64 done = 0;
    SlotRun* run = head_;
    u64 cursor = 0;
    while (done < warmup_packets) {
      Trace& tr = (*shared->slot_traces)[run->slot];
      const u32 count = static_cast<u32>(
          std::min<u64>(burst, warmup_packets - done));
      for (u32 i = 0; i < count; ++i) {
        ctxs[i] = SlotContext(tr[cursor]);
        cursor = cursor + 1 < tr.size() ? cursor + 1 : 0;
      }
      handler(ctxs, count, verdicts);
      done += count;
      run = run->next != nullptr ? run->next : head_;
      cursor = 0;
    }
  }

  // Adopts every donated flow-group waiting in this worker's ring.
  void DrainAdoptions() {
    (*shared->rings)[cpu]->Drain([this](const SlotHandoff& h) {
      NewRun(h.slot, h.cursor, h.remaining, h.failover);
      ++slots_adopted;
    });
  }

  // Donates owned slots the table no longer maps to this worker. Returns
  // true when a donation was deferred by a full ring (retry next boundary).
  bool ScanAndDonate() {
    Publish();  // a donated run must not carry this worker's served count
    bool deferred = false;
    SlotRun** link = &head_;
    while (*link != nullptr) {
      SlotRun* run = *link;
      const u32 owner = shared->table->Owner(run->slot);
      if (owner == cpu) {
        link = &run->next;
        continue;
      }
      if (!(*shared->rings)[owner]->Donate(Handoff(*run))) {
        ++donate_retries;
        deferred = true;  // keep serving the slot; retry next boundary
        link = &run->next;
        continue;
      }
      ++slots_donated;
      *link = run->next;
      FreeRun(run);
    }
    return deferred;
  }

  // Assembles up to `burst` packets across owned slots, in slot-list order.
  // Returns the count; parts[] records which run contributed how many so
  // the post-burst accounting can decrement the right quotas. Every part but
  // the last takes its run's whole remaining quota.
  struct Part {
    SlotRun* run;
    u32 n;
  };
  u32 FillBurst(ebpf::XdpContext* ctxs, Part* parts, u32* num_parts) {
    u32 count = 0;
    *num_parts = 0;
    for (SlotRun* run = head_; run != nullptr && count < burst;
         run = run->next) {
      Trace& tr = (*shared->slot_traces)[run->slot];
      const u32 take =
          static_cast<u32>(std::min<u64>(burst - count, run->remaining));
      for (u32 i = 0; i < take; ++i) {
        ctxs[count + i] = SlotContext(tr[run->cursor]);
        run->cursor = run->cursor + 1 < tr.size() ? run->cursor + 1 : 0;
      }
      parts[(*num_parts)++] = Part{run, take};
      count += take;
    }
    return count;
  }

  // Dying worker: every owned flow-group is donated to the least-loaded
  // survivor (re-steering the table), or dropped when nobody survives.
  void DieDonate() {
    SlotRun* run = head_;
    head_ = nullptr;
    std::vector<u64> backlog;
    while (run != nullptr) {
      SlotRun* next = run->next;
      while (run->remaining > 0) {
        const u32 owner = shared->table->Owner(run->slot);
        u32 target = owner;
        if (owner == cpu || owner >= shared->workers ||
            !shared->alive[owner].load(std::memory_order_acquire)) {
          std::vector<bool> alive_now(shared->workers, false);
          bool any = false;
          for (u32 w = 0; w < shared->workers; ++w) {
            if (w != cpu &&
                shared->alive[w].load(std::memory_order_acquire)) {
              alive_now[w] = true;
              any = true;
            }
          }
          if (!any) {
            shared->DropSlot(run->slot, run->remaining, run->failover);
            break;
          }
          shared->BacklogByWorker(backlog);
          target = ChooseLeastLoadedQueue(alive_now, backlog);
          if (!shared->table->Resteer(run->slot, owner, target)) {
            continue;  // owner moved under us; re-read and retry
          }
        }
        SlotHandoff handoff = Handoff(*run);
        handoff.failover = true;
        if ((*shared->rings)[target]->Donate(handoff)) {
          ++slots_donated;
          shared->failover_donations.fetch_add(1, std::memory_order_relaxed);
          if (!run->failover) {
            shared->failover_budget.fetch_add(run->remaining,
                                              std::memory_order_relaxed);
          }
          break;
        }
        ++donate_retries;
        // Ring full: the target drains it if alive, the controller sweeps it
        // if the target died meanwhile — bounded wait either way.
        std::this_thread::sleep_for(std::chrono::microseconds(5));
      }
      FreeRun(run);
      run = next;
    }
  }

  void Run() {
    ebpf::SetCurrentCpu(cpu);
    arena.BindOwner(cpu);
    Warmup();
    shared->ready.fetch_add(1, std::memory_order_release);
    while (!shared->go.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }

    ebpf::XdpContext ctxs[kMaxBurstSize];
    ebpf::XdpAction verdicts[kMaxBurstSize];
    Part parts[kMaxBurstSize];
    u64 seen_gen = shared->table->Generation();
    bool donate_pending = false;
    bool clock_on = false;
    double t0 = 0.0;
    u64 done = 0;

    const auto pause_clock = [&] {
      if (clock_on) {
        busy_seconds += ThreadCpuSeconds() - t0;
        clock_on = false;
      }
    };

    if (handler) {
      for (;;) {
        if ((*shared->rings)[cpu]->HasPending()) {
          DrainAdoptions();
        }
        if (shared->table->GenerationChanged(seen_gen) || donate_pending) {
          donate_pending = ScanAndDonate();
        }
        if (!kill_point.empty() &&
            enetstl::FaultInjector::Global().ShouldFail(kill_point)) {
          failed = true;
          break;
        }
        u32 num_parts = 0;
        const u32 count = FillBurst(ctxs, parts, &num_parts);
        if (count == 0) {
          pause_clock();
          Publish();
          if (shared->global_remaining.load(std::memory_order_acquire) == 0) {
            break;
          }
          std::this_thread::sleep_for(std::chrono::microseconds(20));
          continue;
        }
        if (!clock_on) {
          t0 = ThreadCpuSeconds();
          clock_on = true;
        }
        if constexpr (obs::kCompiledIn) {
          obs::Telemetry& telemetry = obs::Telemetry::Global();
          if (telemetry.enabled()) {
            const u64 h0 = ebpf::helpers::BpfKtimeGetNs();
            handler(ctxs, count, verdicts);
            telemetry.RecordBurst(
                obs_scope, ebpf::helpers::BpfKtimeGetNs() - h0, count,
                [&](u32 i) { return obs::FlowOf(ctxs[i]); });
          } else {
            handler(ctxs, count, verdicts);
          }
        } else {
          handler(ctxs, count, verdicts);
        }
        for (u32 i = 0; i < count; ++i) {
          stats.AccumulateVerdict(verdicts[i]);
        }
        // Post-burst accounting: quotas decrement only after the packets
        // ran, so a donated descriptor's residual is always exact.
        for (u32 p = 0; p < num_parts; ++p) {
          SlotRun* run = parts[p].run;
          run->remaining -= parts[p].n;
          if (run->failover) {
            stats.degraded += parts[p].n;
          }
          shared->slot_remaining[run->slot].remaining.store(
              run->remaining, std::memory_order_relaxed);
        }
        done += count;
        unpublished_ += count;
        // FillBurst drains runs from the head, so the exhausted runs are a
        // prefix of the list.
        if (head_->remaining == 0) {
          do {
            SlotRun* run = head_;
            head_ = run->next;
            FreeRun(run);
          } while (head_ != nullptr && head_->remaining == 0);
          Publish();
        }
      }
    }
    pause_clock();
    Publish();

    stats.packets = done;
    stats.seconds = busy_seconds;
    if (busy_seconds > 0.0 && done > 0) {
      stats.pps = static_cast<double>(done) / busy_seconds;
      stats.ns_per_packet = busy_seconds * 1e9 / static_cast<double>(done);
    }

    // Death drain AFTER clearing alive: nobody targets a dying worker, and
    // the dying worker never donates to itself.
    shared->alive[cpu].store(false, std::memory_order_release);
    if (failed) {
      DieDonate();
    } else {
      // Clean exit with owned-but-unserved slots is impossible unless the
      // whole run drained (global == 0); free the bookkeeping.
      SlotRun* run = head_;
      head_ = nullptr;
      while (run != nullptr) {
        SlotRun* next = run->next;
        if (run->remaining > 0) {
          shared->DropSlot(run->slot, run->remaining, run->failover);
        }
        FreeRun(run);
        run = next;
      }
    }
    shared->retired[cpu].store(true, std::memory_order_release);
  }
};

// Migration controller: sweeps retired shards' rings, watches the obs
// imbalance signal, and re-steers hot flow-groups cold at burst-boundary
// granularity (the workers commit the re-steer when they observe it).
struct ScaleOutController {
  ScaleOutShared* shared = nullptr;
  MigrationPolicy policy;
  std::vector<ebpf::u16> scopes;  // per worker, for the obs reader

  MigrationStats stats;

  bool AllRetired() const {
    for (u32 w = 0; w < shared->workers; ++w) {
      if (!shared->retired[w].load(std::memory_order_acquire)) {
        return false;
      }
    }
    return true;
  }

  // Re-delivers one swept descriptor; false when it must be parked (every
  // candidate ring full).
  bool Redeliver(const SlotHandoff& h) {
    for (;;) {
      const u32 owner = shared->table->Owner(h.slot);
      u32 target = owner;
      if (owner >= shared->workers ||
          !shared->alive[owner].load(std::memory_order_acquire)) {
        std::vector<bool> alive_now(shared->workers, false);
        bool any = false;
        for (u32 w = 0; w < shared->workers; ++w) {
          if (shared->alive[w].load(std::memory_order_acquire)) {
            alive_now[w] = true;
            any = true;
          }
        }
        if (!any) {
          shared->DropSlot(h.slot, h.remaining, h.failover);
          return true;  // dropped, not parked
        }
        std::vector<u64> backlog;
        shared->BacklogByWorker(backlog);
        target = ChooseLeastLoadedQueue(alive_now, backlog);
        if (!shared->table->Resteer(h.slot, owner, target)) {
          continue;  // racing re-steer; re-read
        }
      }
      SlotHandoff fwd = h;
      fwd.generation = shared->table->Generation();
      if ((*shared->rings)[target]->Donate(fwd)) {
        ++stats.swept_handoffs;
        return true;
      }
      return false;  // ring full; park and retry next window
    }
  }

  void Run() {
    obs::ShardSignalReader reader(scopes);
    std::vector<SlotHandoff> parked;
    u32 streak = 0;
    std::vector<u64> backlog;
    while (shared->global_remaining.load(std::memory_order_acquire) > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(std::max<u32>(policy.window_us, 10)));
      ++stats.windows;

      // Sweep: retired workers' rings may hold descriptors nobody will ever
      // drain; the retirement flag makes the controller the sole consumer.
      std::vector<SlotHandoff> swept;
      std::swap(swept, parked);
      for (u32 w = 0; w < shared->workers; ++w) {
        if (shared->retired[w].load(std::memory_order_acquire)) {
          (*shared->rings)[w]->Drain(
              [&swept](const SlotHandoff& h) { swept.push_back(h); });
        }
      }
      for (const SlotHandoff& h : swept) {
        if (!Redeliver(h)) {
          parked.push_back(h);
        }
      }

      if (AllRetired()) {
        // Nobody can serve what's left: every ring is now the controller's
        // (including those of workers that retired after the sweep above),
        // and parked descriptors have no live target. Drop the residual so
        // the run terminates with an honest shortfall.
        for (u32 w = 0; w < shared->workers; ++w) {
          (*shared->rings)[w]->Drain(
              [&parked](const SlotHandoff& h) { parked.push_back(h); });
        }
        for (const SlotHandoff& h : parked) {
          shared->DropSlot(h.slot, h.remaining, h.failover);
        }
        parked.clear();
        break;
      }

      if (!policy.enabled) {
        continue;
      }

      // Imbalance signal: per-shard backlog weighted by the obs-derived
      // mean service time (fallback 1.0 → pure backlog when the histogram
      // window is thin or telemetry is off).
      reader.Poll();
      shared->BacklogByWorker(backlog);
      std::vector<double> costs;
      std::vector<u32> who;
      for (u32 w = 0; w < shared->workers; ++w) {
        if (!shared->alive[w].load(std::memory_order_acquire)) {
          continue;
        }
        const double svc =
            reader.MeanNsOr(w, policy.min_window_samples, 1.0);
        costs.push_back(static_cast<double>(backlog[w]) * svc);
        who.push_back(w);
      }
      const obs::ImbalanceSignal sig = obs::ComputeShardImbalance(costs);
      stats.last_skew = sig.skew;
      if (!sig.valid || sig.skew <= policy.skew_threshold) {
        streak = 0;
        continue;
      }
      ++stats.triggers;
      if (++streak < policy.k_windows) {
        continue;
      }
      streak = 0;

      const u32 hottest = who[sig.hottest];
      const u32 coldest = who[sig.coldest];
      if (hottest == coldest) {
        continue;
      }
      std::vector<SlotLoad> hot_slots;
      for (u32 s = 0; s < kRssIndirectionSize; ++s) {
        if (shared->table->Owner(s) != hottest) {
          continue;
        }
        const u64 rem =
            shared->slot_remaining[s].remaining.load(std::memory_order_relaxed);
        if (rem > 0) {
          hot_slots.push_back(SlotLoad{s, rem});
        }
      }
      const double svc_hot =
          reader.MeanNsOr(hottest, policy.min_window_samples, 1.0);
      const double svc_cold =
          reader.MeanNsOr(coldest, policy.min_window_samples, 1.0);
      const std::vector<u32> moves =
          PlanMigration(std::move(hot_slots), costs[sig.hottest],
                        costs[sig.coldest], svc_hot, svc_cold,
                        policy.max_slots_per_round);
      u32 moved = 0;
      for (const u32 slot : moves) {
        if (shared->table->Resteer(slot, hottest, coldest)) {
          ++moved;
        }
      }
      stats.slots_moved += moved;
      if (moved > 0) {
        ++stats.rounds;
      }
    }
    stats.final_generation = shared->table->Generation();
  }
};

}  // namespace

ShardedPipeline::Result ShardedPipeline::MeasureScaleOut(
    const ProgramFactory& factory, const Trace& trace,
    const MigrationPolicy& policy) const {
  Result result;
  const u32 workers =
      std::clamp(options_.num_workers, u32{1}, ebpf::kNumPossibleCpus);
  const u32 burst = std::clamp(options_.burst_size, u32{1}, kMaxBurstSize);
  if (trace.empty()) {
    return result;
  }
  result.shards.resize(workers);

  // Split the trace by indirection slot (the flow-group migration unit).
  std::vector<Trace> slot_traces(kRssIndirectionSize);
  for (const Packet& packet : trace) {
    slot_traces[RssSlotForPacket(packet, kRssIndirectionSize,
                                 options_.rss_seed)]
        .push_back(packet);
  }

  // Per-slot packet budget, proportional to slot depth, remainders on the
  // non-empty slots so the quotas sum exactly to measure_packets.
  std::vector<u64> quota(kRssIndirectionSize, 0);
  u64 assigned = 0;
  for (u32 s = 0; s < kRssIndirectionSize; ++s) {
    quota[s] = options_.measure_packets * slot_traces[s].size() / trace.size();
    assigned += quota[s];
  }
  for (u64 leftover = options_.measure_packets - assigned; leftover > 0;) {
    for (u32 s = 0; s < kRssIndirectionSize && leftover > 0; ++s) {
      if (!slot_traces[s].empty()) {
        ++quota[s];
        --leftover;
      }
    }
  }

  LiveRssIndirection table(BuildRssIndirection(workers));
  std::vector<std::unique_ptr<HandoffRing>> rings;
  rings.reserve(workers);
  for (u32 w = 0; w < workers; ++w) {
    rings.push_back(std::make_unique<HandoffRing>(
        std::max<u32>(policy.ring_bytes, 4096)));
  }

  ScaleOutShared shared;
  shared.workers = workers;
  shared.slot_traces = &slot_traces;
  shared.table = &table;
  shared.rings = &rings;
  u64 total_quota = 0;
  for (u32 s = 0; s < kRssIndirectionSize; ++s) {
    shared.slot_remaining[s].remaining.store(quota[s],
                                             std::memory_order_relaxed);
    total_quota += quota[s];
  }
  shared.global_remaining.store(total_quota, std::memory_order_relaxed);
  for (u32 w = 0; w < workers; ++w) {
    shared.alive[w].store(true, std::memory_order_relaxed);
    shared.retired[w].store(false, std::memory_order_relaxed);
  }

  // Per-shard telemetry scopes, shared with the controller's obs reader.
  std::vector<ebpf::u16> scopes(workers, obs::kInvalidScope);
  if constexpr (obs::kCompiledIn) {
    for (u32 w = 0; w < workers; ++w) {
      scopes[w] =
          obs::Telemetry::Global().RegisterScope("shard/" + std::to_string(w));
    }
  }

  std::vector<std::unique_ptr<ScaleOutWorker>> tasks;
  std::vector<std::function<void(ShardStats&)>> finishers(workers);
  tasks.reserve(workers);
  for (u32 w = 0; w < workers; ++w) {
    auto task = std::make_unique<ScaleOutWorker>();
    task->cpu = w;
    task->burst = burst;
    task->warmup_packets = options_.warmup_packets;
    task->kill_point = "shard.kill." + std::to_string(w);
    task->shared = &shared;
    task->obs_scope = scopes[w];
    if (factory) {
      ShardProgram program = factory(w);
      task->handler = std::move(program.handler);
      finishers[w] = std::move(program.finish);
    }
    task->AdoptInitial(quota);
    tasks.push_back(std::move(task));
  }

  ScaleOutController controller;
  controller.shared = &shared;
  controller.policy = policy;
  controller.scopes = scopes;

  std::vector<std::thread> threads;
  threads.reserve(workers + 1);
  for (u32 w = 0; w < workers; ++w) {
    threads.emplace_back([&tasks, w] { tasks[w]->Run(); });
  }
  while (shared.ready.load(std::memory_order_acquire) < workers) {
    std::this_thread::yield();
  }
  const auto wall_start = WallClock::now();
  shared.go.store(true, std::memory_order_release);
  std::thread controller_thread([&controller] { controller.Run(); });
  for (std::thread& t : threads) {
    t.join();
  }
  controller_thread.join();
  result.wall_seconds = std::chrono::duration_cast<
                            std::chrono::duration<double>>(WallClock::now() -
                                                           wall_start)
                            .count();

  result.migration = controller.stats;
  result.migration.failover_donations =
      shared.failover_donations.load(std::memory_order_relaxed);
  double busy_total = 0.0;
  for (u32 w = 0; w < workers; ++w) {
    ShardStats& shard = result.shards[w];
    const ScaleOutWorker& task = *tasks[w];
    shard.cpu = w;
    shard.queue_depth = task.initial_depth;
    shard.busy_seconds = task.busy_seconds;
    shard.stats = task.stats;
    shard.failed = task.failed;
    shard.slots_initial = task.slots_initial;
    shard.slots_adopted = task.slots_adopted;
    shard.slots_donated = task.slots_donated;
    if (task.failed) {
      ++result.failed_workers;
    }
    result.migration.handoffs += task.slots_adopted;
    result.migration.handoff_retries += task.donate_retries;
    result.total.packets += shard.stats.packets;
    result.total.dropped += shard.stats.dropped;
    result.total.passed += shard.stats.passed;
    result.total.aborted += shard.stats.aborted;
    result.total.degraded += shard.stats.degraded;
    result.total.pps += shard.stats.pps;
    busy_total += shard.busy_seconds;
    result.makespan_seconds =
        std::max(result.makespan_seconds, shard.busy_seconds);
  }
  result.total.seconds = result.wall_seconds;
  if (result.total.packets > 0 && busy_total > 0.0) {
    result.total.ns_per_packet =
        busy_total * 1e9 / static_cast<double>(result.total.packets);
  }
  if (result.makespan_seconds > 0.0) {
    result.offered_pps =
        static_cast<double>(result.total.packets) / result.makespan_seconds;
  }
  // Failover accounting: the budget dying workers donated away, minus the
  // part of it dropped for want of survivors — i.e. the packets served on
  // behalf of failed shards. Counted apart from the per-shard degraded
  // counters, which must sum to the same figure.
  result.failover_packets =
      shared.failover_budget.load(std::memory_order_relaxed) -
      shared.failover_dropped.load(std::memory_order_relaxed);

  for (u32 w = 0; w < workers; ++w) {
    if (finishers[w]) {
      finishers[w](result.shards[w]);
    }
  }
  result.total_stages = MergeStageBreakdowns(result.shards);
  return result;
}

}  // namespace pktgen
