// JSON / console export of the telemetry plane: merged per-scope histogram
// summaries, ring-buffer drop accounting, and top-K flows. Feeds the `obs`
// block of the bench JSON reports (schema_version 3) and the flow_monitor
// example's live view.
#ifndef ENETSTL_OBS_EXPORTER_H_
#define ENETSTL_OBS_EXPORTER_H_

#include <cstdio>
#include <string>
#include <vector>

#include "nf/heavykeeper.h"
#include "obs/flow_sampler.h"
#include "obs/percentile.h"  // HistPercentileNs and friends live there now
#include "obs/telemetry.h"

namespace obs {

struct ObsScopeReport {
  std::string name;
  LatencyHist hist;
  u64 samples = 0;
  u64 avg_ns = 0;
  u64 p50_ns = 0;
  u64 p99_ns = 0;
};

struct ObsReport {
  bool compiled_in = kCompiledIn;
  bool enabled = false;
  u32 sample_every = 0;
  u64 ring_dropped = 0;
  u64 control_events = 0;  // reconfiguration transitions emitted
  u64 scopes_refused = 0;  // scope names turned away by a full table
  std::vector<ObsScopeReport> scopes;  // registered scopes with samples > 0
  std::vector<nf::HkTopEntry> top_flows;
};

// Snapshots `telemetry` (and, when given, the sampler's top-K) into a
// report. Harness-side: call after the datapath has quiesced.
ObsReport CollectObsReport(Telemetry& telemetry = Telemetry::Global(),
                           const FlowSampler* sampler = nullptr);

// Renders the report as a JSON object (one self-contained `{...}` value,
// suitable for embedding as the "obs" block of a bench report).
std::string ObsReportJson(const ObsReport& report);

// Human-readable view: per-scope summary lines + an ASCII log2 histogram
// per scope + the top-K flow table. Used by examples/flow_monitor.
void PrintObsReport(FILE* out, const ObsReport& report);
void PrintLatencyHist(FILE* out, const LatencyHist& hist);

}  // namespace obs

#endif  // ENETSTL_OBS_EXPORTER_H_
