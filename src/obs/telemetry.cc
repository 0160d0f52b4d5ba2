#include "obs/telemetry.h"

namespace obs {

Telemetry& Telemetry::Global() {
  static Telemetry telemetry;
  return telemetry;
}

Telemetry::Telemetry() : hists_(kMaxScopes), ring_(1u << 16) {
  ebpf::RegisterRingbufKfuncs();
}

Telemetry::ThreadState& Telemetry::Tls() {
  thread_local ThreadState state;
  return state;
}

u16 Telemetry::RegisterScope(const std::string& name) {
  if constexpr (!kCompiledIn) {
    return kInvalidScope;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < scopes_.size(); ++i) {
    if (scopes_[i] == name) {
      return static_cast<u16>(i);
    }
  }
  if (scopes_.size() >= kMaxScopes) {
    ++scopes_refused_;
    return kInvalidScope;
  }
  scopes_.push_back(name);
  return static_cast<u16>(scopes_.size() - 1);
}

std::string Telemetry::ScopeName(u16 id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return id < scopes_.size() ? scopes_[id] : std::string();
}

std::vector<std::string> Telemetry::ScopeNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  return scopes_;
}

void Telemetry::Enable(u32 sample_every) {
  if constexpr (!kCompiledIn) {
    return;
  }
  sample_every_.store(sample_every == 0 ? 1 : sample_every,
                      std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
}

void Telemetry::Disable() { enabled_.store(false, std::memory_order_relaxed); }

void Telemetry::ResetCounts() {
  for (u32 scope = 0; scope < kMaxScopes; ++scope) {
    for (u32 cpu = 0; cpu < ebpf::kNumPossibleCpus; ++cpu) {
      if (LatencyHist* hist = hists_.LookupElemOnCpu(scope, cpu)) {
        *hist = LatencyHist{};
      }
    }
  }
}

void Telemetry::RecordSample(u16 scope, u64 ns, u32 flow) {
  HistAdd(scope, ns, 1);
  EmitEvent(scope, ObsEvent::kScalar, flow, ns);
}

void Telemetry::RecordControl(u16 scope, u32 code, u64 value) {
  if constexpr (!kCompiledIn) {
    return;
  }
  if (scope == kInvalidScope || !enabled_.load(std::memory_order_relaxed)) {
    return;
  }
  control_events_.fetch_add(1, std::memory_order_relaxed);
  EmitEvent(scope, ObsEvent::kControl, code, value);
}

void Telemetry::HistAdd(u16 scope, u64 ns, u32 weight) {
  // A real program updates its percpu slot through the map-lookup helper;
  // this is the sampled path, so the boundary cost is intended.
  LatencyHist* hist = hists_.LookupElem(scope);
  if (hist == nullptr) {
    return;  // kInvalidScope (table full / compiled-out registration)
  }
  hist->Add(ns, weight);
}

void Telemetry::EmitEvent(u16 scope, u16 kind, u32 flow, u64 ns) {
  auto* event = static_cast<ObsEvent*>(ring_.Reserve(sizeof(ObsEvent)));
  if (event == nullptr) {
    return;  // ring full: the map already counted the dropped event
  }
  event->scope = scope;
  event->kind = kind;
  event->flow = flow;
  event->latency_ns = ns;
  event->seq = ++Tls().seq;
  ring_.Submit(event);
}

LatencyHist Telemetry::Snapshot(u16 scope) {
  LatencyHist merged;
  for (u32 cpu = 0; cpu < ebpf::kNumPossibleCpus; ++cpu) {
    const LatencyHist* hist = hists_.LookupElemOnCpu(scope, cpu);
    if (hist == nullptr) {
      continue;
    }
    for (u32 b = 0; b < LatencyHist::kBuckets; ++b) {
      merged.counts[b] += hist->counts[b];
    }
    merged.total_ns += hist->total_ns;
    merged.samples += hist->samples;
  }
  return merged;
}

}  // namespace obs
