#include "obs/exporter.h"

#include <algorithm>
#include <cinttypes>

namespace obs {

namespace {

// The scope names exported here are library-constructed identifiers, but
// escape anyway so a hostile chain name cannot corrupt the report.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

u64 BucketUpperNs(u32 bucket) { return HistBucketUpperNs(bucket); }

}  // namespace

ObsReport CollectObsReport(Telemetry& telemetry, const FlowSampler* sampler) {
  ObsReport report;
  report.enabled = telemetry.enabled();
  report.sample_every = telemetry.sample_every();
  report.ring_dropped = telemetry.ring().dropped_events();
  report.control_events = telemetry.control_events();
  report.scopes_refused = telemetry.scopes_refused();
  const std::vector<std::string> names = telemetry.ScopeNames();
  for (std::size_t id = 0; id < names.size(); ++id) {
    const LatencyHist hist = telemetry.Snapshot(static_cast<u16>(id));
    if (hist.samples == 0) {
      continue;
    }
    ObsScopeReport scope;
    scope.name = names[id];
    scope.hist = hist;
    scope.samples = hist.samples;
    scope.avg_ns = hist.total_ns / hist.samples;
    scope.p50_ns = HistPercentileNs(hist, 0.50);
    scope.p99_ns = HistPercentileNs(hist, 0.99);
    report.scopes.push_back(std::move(scope));
  }
  if (sampler != nullptr) {
    report.top_flows = sampler->TopK();
  }
  return report;
}

std::string ObsReportJson(const ObsReport& report) {
  std::string out = "{";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"compiled_in\": %s, \"enabled\": %s, \"sample_every\": %u, "
                "\"ring_dropped\": %" PRIu64 ", \"control_events\": %" PRIu64
                ", \"scopes_refused\": %" PRIu64 ", \"scopes\": [",
                report.compiled_in ? "true" : "false",
                report.enabled ? "true" : "false", report.sample_every,
                report.ring_dropped, report.control_events,
                report.scopes_refused);
  out += buf;
  for (std::size_t i = 0; i < report.scopes.size(); ++i) {
    const ObsScopeReport& scope = report.scopes[i];
    out += i == 0 ? "" : ", ";
    out += "{\"name\": \"" + JsonEscape(scope.name) + "\", ";
    std::snprintf(buf, sizeof(buf),
                  "\"samples\": %" PRIu64 ", \"avg_ns\": %" PRIu64
                  ", \"p50_ns\": %" PRIu64 ", \"p99_ns\": %" PRIu64 "}",
                  scope.samples, scope.avg_ns, scope.p50_ns, scope.p99_ns);
    out += buf;
  }
  out += "], \"top_flows\": [";
  for (std::size_t i = 0; i < report.top_flows.size(); ++i) {
    out += i == 0 ? "" : ", ";
    std::snprintf(buf, sizeof(buf), "{\"flow\": %u, \"est\": %u}",
                  report.top_flows[i].flow, report.top_flows[i].est);
    out += buf;
  }
  out += "]}";
  return out;
}

void PrintLatencyHist(FILE* out, const LatencyHist& hist) {
  u32 first = LatencyHist::kBuckets;
  u32 last = 0;
  u64 max_count = 0;
  for (u32 b = 0; b < LatencyHist::kBuckets; ++b) {
    if (hist.counts[b] == 0) {
      continue;
    }
    first = std::min(first, b);
    last = std::max(last, b);
    max_count = std::max(max_count, hist.counts[b]);
  }
  if (max_count == 0) {
    std::fprintf(out, "    (no samples)\n");
    return;
  }
  for (u32 b = first; b <= last; ++b) {
    const u64 lo = b == 0 ? 0 : 1ull << (b - 1);
    const int width =
        static_cast<int>(hist.counts[b] * 40 / max_count);
    std::fprintf(out, "    %10" PRIu64 " ns .. %10" PRIu64 " ns | %-40.*s %" PRIu64 "\n",
                 lo, BucketUpperNs(b), width,
                 "****************************************", hist.counts[b]);
  }
}

void PrintObsReport(FILE* out, const ObsReport& report) {
  if (!report.compiled_in) {
    std::fprintf(out, "observability compiled out (ENETSTL_OBS=OFF)\n");
    return;
  }
  std::fprintf(out,
               "telemetry: %s, 1/%u sampling, %" PRIu64
               " ring event(s) dropped, %" PRIu64 " control event(s), %" PRIu64
               " scope name(s) refused\n",
               report.enabled ? "enabled" : "disabled", report.sample_every,
               report.ring_dropped, report.control_events,
               report.scopes_refused);
  for (const ObsScopeReport& scope : report.scopes) {
    std::fprintf(out,
                 "  %-28s samples=%" PRIu64 " avg=%" PRIu64 "ns p50<=%" PRIu64
                 "ns p99<=%" PRIu64 "ns\n",
                 scope.name.c_str(), scope.samples, scope.avg_ns, scope.p50_ns,
                 scope.p99_ns);
    PrintLatencyHist(out, scope.hist);
  }
  if (!report.top_flows.empty()) {
    std::fprintf(out, "  top flows (sampled estimate):\n");
    for (const nf::HkTopEntry& entry : report.top_flows) {
      std::fprintf(out, "    flow %08x  est %u\n", entry.flow, entry.est);
    }
  }
}

}  // namespace obs
