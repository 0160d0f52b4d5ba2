#include "pktgen/openloop.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>

namespace pktgen {

namespace {

using Clock = std::chrono::steady_clock;

// Exponential variate with the given mean (ns). 1-u keeps log() off 0.
inline double ExpNs(Rng& rng, double mean_ns) {
  return -std::log(1.0 - rng.NextDouble()) * mean_ns;
}

inline ebpf::XdpContext ContextOf(Packet& packet) {
  ebpf::XdpContext ctx;
  ctx.data = packet.frame;
  ctx.data_end = packet.frame + ebpf::kFrameSize;
  return ctx;
}

}  // namespace

std::vector<u64> MakePoissonArrivals(double rate_pps, u32 count, u64 seed) {
  std::vector<u64> arrivals;
  arrivals.reserve(count);
  if (rate_pps <= 0.0) {
    return arrivals;
  }
  Rng rng(seed);
  const double mean_gap_ns = 1e9 / rate_pps;
  double t = 0.0;
  for (u32 i = 0; i < count; ++i) {
    t += ExpNs(rng, mean_gap_ns);
    arrivals.push_back(static_cast<u64>(t));
  }
  return arrivals;
}

std::vector<u64> MakeOnOffArrivals(double peak_pps, double duty,
                                   double mean_on_ns, u32 count, u64 seed) {
  std::vector<u64> arrivals;
  arrivals.reserve(count);
  if (peak_pps <= 0.0 || duty <= 0.0 || mean_on_ns <= 0.0) {
    return arrivals;
  }
  duty = std::min(duty, 1.0);
  Rng rng(seed);
  const double mean_gap_ns = 1e9 / peak_pps;
  const double mean_off_ns =
      duty >= 1.0 ? 0.0 : mean_on_ns * (1.0 - duty) / duty;
  double t = 0.0;
  // Current ON period ends at `on_until`; arrivals only land inside it.
  double on_until = ExpNs(rng, mean_on_ns);
  while (arrivals.size() < count) {
    t += ExpNs(rng, mean_gap_ns);
    while (t > on_until) {
      // Jump the silent OFF dwell, then open the next ON period. The gap in
      // progress resumes inside it (memorylessness of the exponential).
      const double off_end = on_until + ExpNs(rng, mean_off_ns);
      const double shift = off_end - on_until;
      t += shift;
      on_until = off_end + ExpNs(rng, mean_on_ns);
    }
    arrivals.push_back(static_cast<u64>(t));
  }
  return arrivals;
}

std::vector<u64> MakeRampArrivals(double start_pps, double end_pps, u32 count,
                                  u64 seed) {
  std::vector<u64> arrivals;
  arrivals.reserve(count);
  if (start_pps <= 0.0 || end_pps <= 0.0) {
    return arrivals;
  }
  Rng rng(seed);
  const double denom = count > 1 ? static_cast<double>(count - 1) : 1.0;
  double t = 0.0;
  for (u32 i = 0; i < count; ++i) {
    const double rate =
        start_pps + (end_pps - start_pps) * static_cast<double>(i) / denom;
    t += ExpNs(rng, 1e9 / rate);
    arrivals.push_back(static_cast<u64>(t));
  }
  return arrivals;
}

double OfferedPps(const std::vector<u64>& arrivals) {
  if (arrivals.size() < 2) {
    return 0.0;
  }
  const u64 span = arrivals.back() - arrivals.front();
  if (span == 0) {
    return 0.0;
  }
  return static_cast<double>(arrivals.size() - 1) /
         (static_cast<double>(span) / 1e9);
}

ServiceModel MeasuredService(PacketBurstHandler handler) {
  return [handler](ebpf::XdpContext* ctxs, u32 count,
                   ebpf::XdpAction* verdicts) -> u64 {
    const auto t0 = Clock::now();
    handler(ctxs, count, verdicts);
    const auto t1 = Clock::now();
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
    return ns > 0 ? static_cast<u64>(ns) : 1;
  };
}

OpenLoopEngine::OpenLoopEngine(const OpenLoopConfig& config)
    : config_(config) {
  config_.queue_capacity = std::max<u32>(config_.queue_capacity, 1);
  config_.burst_size = std::clamp(config_.burst_size, u32{1}, kMaxBurstSize);
}

OpenLoopStats OpenLoopEngine::Run(const Trace& trace,
                                  const std::vector<u64>& arrivals,
                                  const ServiceModel& service) const {
  OpenLoopStats stats;
  const u32 n = static_cast<u32>(std::min(trace.size(), arrivals.size()));
  if (n == 0) {
    return stats;
  }
  Trace working(trace.begin(), trace.begin() + n);
  stats.offered = n;
  stats.offered_pps = OfferedPps(arrivals);

  obs::Telemetry& telemetry = obs::Telemetry::Global();
  const bool mirror =
      config_.obs_scope != obs::kInvalidScope && telemetry.enabled();

  ebpf::XdpContext ctxs[kMaxBurstSize];
  ebpf::XdpAction verdicts[kMaxBurstSize];

  std::deque<u32> queue;  // admitted trace indices, FIFO
  u32 next = 0;           // next arrival not yet offered to the queue
  u64 t_free = 0;         // virtual ns at which the server is free

  while (next < n || !queue.empty()) {
    if (queue.empty()) {
      // Idle server: jump the virtual clock to the next arrival.
      t_free = std::max(t_free, arrivals[next]);
    }
    // Admit everything that arrived while the server was busy (or at this
    // exact instant). Queue-full arrivals tail-drop, counted exactly.
    while (next < n && arrivals[next] <= t_free) {
      if (queue.size() < static_cast<std::size_t>(config_.queue_capacity)) {
        queue.push_back(next);
        ++stats.admitted;
        stats.max_queue_depth =
            std::max<u64>(stats.max_queue_depth, queue.size());
      } else {
        ++stats.dropped;
      }
      ++next;
    }
    if (queue.empty()) {
      continue;  // nothing admitted yet; loop jumps to the next arrival
    }

    // Serve one burst from the queue head.
    const u32 count = static_cast<u32>(
        std::min<std::size_t>(queue.size(), config_.burst_size));
    for (u32 i = 0; i < count; ++i) {
      ctxs[i] = ContextOf(working[queue[i]]);
      ctxs[i].rx_timestamp_ns = arrivals[queue[i]];
    }
    u64 service_ns = std::max<u64>(service(ctxs, count, verdicts), 1);
    if (config_.max_service_ns > 0) {
      service_ns = std::min(service_ns, config_.max_service_ns);
    }
    t_free += service_ns;
    stats.last_departure_ns = t_free;

    const u64 avg_service_ns = service_ns / count;
    for (u32 i = 0; i < count; ++i) {
      const u32 idx = queue[i];
      const u64 sojourn_ns = t_free - arrivals[idx];
      stats.sojourn.Add(sojourn_ns);
      stats.service.Add(avg_service_ns);
      ++stats.served;
      switch (verdicts[i]) {
        case ebpf::XdpAction::kDrop:
          ++stats.dropped_verdicts;
          break;
        case ebpf::XdpAction::kAborted:
          ++stats.aborted;
          break;
        default:
          ++stats.passed;
          break;
      }
      if (config_.served_log != nullptr) {
        config_.served_log->emplace_back(idx, verdicts[i]);
      }
      if (mirror) {
        ebpf::XdpContext ctx = ContextOf(working[idx]);
        telemetry.RecordSample(config_.obs_scope, sojourn_ns,
                               obs::FlowOf(ctx));
      }
    }
    queue.erase(queue.begin(), queue.begin() + count);
  }

  if (stats.last_departure_ns > 0) {
    stats.achieved_pps =
        static_cast<double>(stats.served) /
        (static_cast<double>(stats.last_departure_ns) / 1e9);
  }
  return stats;
}

}  // namespace pktgen
