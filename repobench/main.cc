// Repository benchmark: the program run.py builds and runs.
//
//   repobench --workload <chain4|nat_churn|chain_swap|scaleout_skew>
//             --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 measures the
// per-layer ledger and, with --spans, writes the recorded spans there. The
// last line of stdout is one JSON object: correct, attempted, failed and the
// metrics. A correctness mismatch exits 1, a usage error 2.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "common.h"
#include "fingerprint.h"
#include "obs/telemetry.h"
#include "stats.h"
#include "workloads.h"

namespace {

using rb::Options;
using rb::Result;

struct WorkloadEntry {
  const char* name;
  std::unique_ptr<rb::Workload> (*make)(rb::u64 seed);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"chain4", rb::MakeChain4},
    {"nat_churn", rb::MakeNatChurn},
    {"chain_swap", rb::MakeChainSwap},
    {"scaleout_skew", rb::MakeScaleoutSkew},
};

// Bound on spans kept in memory by a traced run (32 bytes each); spans past
// it are counted, not kept.
constexpr std::size_t kSpanCapacity = 1u << 18;

int Usage(const char* why) {
  std::fprintf(stderr,
               "repobench: %s\nusage: repobench --workload "
               "<chain4|nat_churn|chain_swap|scaleout_skew> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      opt->seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      opt->trace = std::strcmp(value, "1") == 0;
      if (!opt->trace && std::strcmp(value, "0") != 0) {
        return false;
      }
    } else if (key == "--spans") {
      opt->spans_path = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && opt->seconds > 0.0;
}

double Finite(double v) { return std::isfinite(v) ? v : 0.0; }

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory in the process: without this, glibc returns heap tops
  // and large blocks to the kernel, and the page faults that re-acquire them
  // land at random in set-up and swap timings (swap p50 moved 2-3x between
  // processes on the reference host).
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    return Usage("bad arguments");
  }
  const WorkloadEntry* entry = nullptr;
  for (const WorkloadEntry& w : kWorkloads) {
    if (opt.workload == w.name) {
      entry = &w;
    }
  }
  if (entry == nullptr) {
    return Usage(("unknown workload '" + opt.workload + "'").c_str());
  }

  const std::string host = rb::HostFingerprintJson();
  std::printf("host: %s\n", host.c_str());
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d obs_runtime=%s\n",
              entry->name, static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0,
              obs::Telemetry::Global().enabled() ? "on" : "off");

  Result result;
  std::string math_error;
  if (!rb::RunMathChecks(&math_error)) {
    result.Mismatch("statistics self-check failed: " + math_error);
  } else {
    rb::SpanRecorder spans(opt.trace ? kSpanCapacity : 0);
    std::unique_ptr<rb::Workload> workload = entry->make(opt.seed);
    rb::RunWorkload(*workload, opt, opt.trace ? &spans : nullptr, result);
    if (opt.trace) {
      // Self time per span name over the kept spans: what each layer call
      // cost beyond the calls it made.
      for (const auto& [name, t] : spans.Totals()) {
        std::printf("self: %-36s %9llu spans %12.3f ms total %12.3f ms self\n",
                    name.c_str(), static_cast<unsigned long long>(t.count),
                    static_cast<double>(t.total_ns) / 1e6,
                    static_cast<double>(t.self_ns) / 1e6);
      }
    }
    if (opt.trace && !opt.spans_path.empty() && result.correct) {
      const std::vector<std::string> header = {
          "host " + host, "workload " + opt.workload + " seed " +
                              std::to_string(opt.seed)};
      if (!spans.WriteCsv(opt.spans_path, header)) {
        std::fprintf(stderr, "repobench: cannot write spans to %s\n",
                     opt.spans_path.c_str());
      }
      std::printf("spans: %zu kept, %llu dropped past capacity -> %s\n",
                  spans.size(), static_cast<unsigned long long>(spans.dropped()),
                  opt.spans_path.c_str());
    }
  }

  std::printf("%-34s %16s %-6s %-7s %s\n", "metric", "value", "unit", "better",
              "samples");
  for (const rb::Metric& m : result.metrics) {
    std::printf("%-34s %16.6f %-6s %-7s %llu\n", m.name.c_str(), Finite(m.value),
                m.unit.c_str(), m.better.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
  const double fail_frac =
      result.attempted ? static_cast<double>(result.failed) /
                             static_cast<double>(result.attempted)
                       : 0.0;
  std::printf("%-34s %16.9f %-6s %-7s\n", "fail_frac", fail_frac, "ratio",
              "lower");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted > 0 ? result.attempted : 1),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const rb::Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), Finite(m.value),
                m.unit.c_str());
  }
  std::printf("}}\n");
  return result.correct ? 0 : 1;
}
