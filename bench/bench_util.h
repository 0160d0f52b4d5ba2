// Shared helpers for the experiment harnesses: each bench binary reproduces
// one table or figure of the paper and prints the corresponding rows.
#ifndef ENETSTL_BENCH_BENCH_UTIL_H_
#define ENETSTL_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "apps/app_chains.h"
#include "nf/nf_interface.h"
#include "nf/nf_registry.h"
#include "obs/percentile.h"
#include "pktgen/flowgen.h"
#include "pktgen/pipeline.h"

namespace bench {

using ebpf::u32;
using ebpf::u64;

// Version of the JSON report layout written by JsonReport; bumped whenever a
// field is added/renamed so downstream tooling can dispatch on it.
// v3: optional "obs" block (observability snapshot from obs::ObsReportJson).
// v4: optional "slo" block (open-loop sweep results from obs::SloReportJson).
inline constexpr int kJsonSchemaVersion = 4;

// Prints every registry entry (registration order): name, category, variants,
// capability flags. The output of --list and of an unknown --nf= value.
inline void PrintRegistryList(FILE* out) {
  std::fprintf(out, "%-20s %-22s %-22s %s\n", "nf", "category", "variants",
               "caps");
  for (const nf::NfEntry* entry : nf::NfRegistry::Global().Entries()) {
    std::string variants;
    for (const nf::Variant v : entry->variants) {
      if (!variants.empty()) {
        variants += ",";
      }
      variants += nf::VariantName(v);
    }
    std::string caps;
    if (entry->caps.batched) {
      caps += "batched ";
    }
    if (entry->caps.chainable) {
      caps += "chainable ";
    }
    if (entry->prime) {
      caps += "roster ";
    }
    std::fprintf(out, "%-20s %-22s %-22s %s\n", entry->name.c_str(),
                 entry->category.c_str(), variants.c_str(), caps.c_str());
  }
}

// Registry-driven argument handling shared by every bench binary:
//   --list      print all registered NFs and exit 0
//   --nf=NAME   validate NAME against the registry; unknown names exit 1
//               with the list on stderr. Recognized names are stored in
//               *selected (when provided) and stripped from argv so later
//               parsers (gbench, JsonReport) never see them.
//   --zipf=A    Zipf skew alpha for the bench's workload generator (parsed
//               into *zipf_alpha when provided). A must be a non-negative
//               number consuming the whole token; anything else exits 1 with
//               the same unknown-value wording as --nf=.
// Registers the app-layer NFs first so composites are listable/selectable.
// Returns an exit code >= 0 when the process should terminate, -1 to
// continue.
inline int HandleRegistryArgs(int* argc, char** argv,
                              std::string* selected = nullptr,
                              double* zipf_alpha = nullptr) {
  apps::RegisterAppNfs();
  int out = 1;
  int code = -1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--list") == 0) {
      PrintRegistryList(stdout);
      return 0;
    }
    if (std::strncmp(arg, "--nf=", 5) == 0) {
      const std::string name = arg + 5;
      if (nf::NfRegistry::Global().Lookup(name) == nullptr) {
        std::fprintf(stderr, "unknown NF '%s'; registered NFs:\n",
                     name.c_str());
        PrintRegistryList(stderr);
        code = 1;
      } else if (selected != nullptr) {
        *selected = name;
      }
      continue;  // strip --nf= either way
    }
    if (std::strncmp(arg, "--zipf=", 7) == 0) {
      const char* value = arg + 7;
      char* end = nullptr;
      const double alpha = std::strtod(value, &end);
      if (value[0] == '\0' || end == nullptr || *end != '\0' || alpha < 0.0) {
        std::fprintf(stderr,
                     "unknown --zipf value '%s'; expected a non-negative "
                     "skew alpha (e.g. --zipf=1.1)\n",
                     value);
        code = 1;
      } else if (zipf_alpha != nullptr) {
        *zipf_alpha = alpha;
      }
      continue;  // strip --zipf= either way
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  return code;
}

// Measurement packet count, overridable via ENETSTL_BENCH_MEASURE_PACKETS so
// CI smoke runs can shrink the benches without a recompile.
inline u64 EnvPackets(u64 fallback) {
  const char* env = std::getenv("ENETSTL_BENCH_MEASURE_PACKETS");
  if (env == nullptr) {
    return fallback;
  }
  const unsigned long long v = std::strtoull(env, nullptr, 10);
  return v > 0 ? static_cast<u64>(v) : fallback;
}

// Standard measurement sizes: large enough for stable single-core numbers,
// small enough that the full suite completes in minutes. `burst_size` only
// matters to burst-mode passes.
inline pktgen::Pipeline MakePipeline(u32 burst_size = 32) {
  pktgen::Pipeline::Options opts;
  opts.warmup_packets = 20'000;
  opts.measure_packets = EnvPackets(200'000);
  opts.burst_size = burst_size;
  return pktgen::Pipeline(opts);
}

// The one repetition runner of the benches. Each pass callable runs one
// timed pass and returns a rate; rep r runs every pass back to back, so slow
// drift on the shared core lands on each pass of that rep alike. Both
// statistics go through obs::SortedQuantile:
//  * Best(i) — the max over reps: the least-perturbed estimate of pass i's
//    rate, and what every printed Mpps column and JSON row reports;
//  * PairedMedianRatio(i, base) — the median over reps of x_i[r] /
//    x_base[r]. Drift cancels within each rep's pair, so ratio gates read
//    this rather than a quotient of two independent maxima. 0 when no rep
//    has a positive base rate.
class Reps {
 public:
  using Pass = std::function<double()>;

  Reps(int reps, const std::vector<Pass>& passes) : samples_(passes.size()) {
    for (int rep = 0; rep < reps; ++rep) {
      for (std::size_t i = 0; i < passes.size(); ++i) {
        samples_[i].push_back(passes[i]());
      }
    }
  }

  double Best(std::size_t i) const { return Quantile(samples_[i], 1.0); }

  double PairedMedianRatio(std::size_t i, std::size_t base) const {
    std::vector<double> ratios;
    for (std::size_t r = 0; r < samples_[base].size(); ++r) {
      if (samples_[base][r] > 0.0) {
        ratios.push_back(samples_[i][r] / samples_[base][r]);
      }
    }
    return Quantile(std::move(ratios), 0.5);
  }

 private:
  static double Quantile(std::vector<double> values, double q) {
    std::sort(values.begin(), values.end());
    return obs::SortedQuantile(values.data(), values.size(), q);
  }

  std::vector<std::vector<double>> samples_;  // [pass][rep]
};

// Rep count of the benches that only report (no ratio gate): the max over
// reps is the least-perturbed estimate on a shared/virtualized core.
inline constexpr int kReportReps = 3;

// Best-of-kReportReps per-packet dispatch rate (Mpps).
inline double MeasureMpps(const pktgen::PacketHandler& handler,
                          const pktgen::Trace& trace) {
  const pktgen::Pipeline pipeline = MakePipeline();
  return Reps(kReportReps, {[&] {
                return pipeline.MeasureThroughput(handler, trace).pps / 1e6;
              }})
      .Best(0);
}

// Best-of-kReportReps burst-mode rate through the NF's ProcessBurst (Mpps).
inline double MeasureBurstMpps(nf::NetworkFunction& nf,
                               const pktgen::Trace& trace, u32 burst_size) {
  const pktgen::Pipeline pipeline = MakePipeline(burst_size);
  return Reps(kReportReps, {[&] {
                const auto stats =
                    pipeline.MeasureThroughputBurst(nf.BurstHandler(), trace);
                return stats.pps / 1e6;
              }})
      .Best(0);
}

// Percentage by which `enetstl` exceeds `baseline` (positive = faster).
inline double PercentGain(double enetstl, double baseline) {
  return baseline > 0 ? (enetstl - baseline) / baseline * 100.0 : 0.0;
}

// Percentage by which `enetstl` falls short of `kernel` (positive = slower).
inline double PercentGap(double enetstl, double kernel) {
  return kernel > 0 ? (kernel - enetstl) / kernel * 100.0 : 0.0;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

// Markdown-ish row printer for the per-figure sweeps.
inline void PrintSweepHeader(const char* param_name) {
  std::printf("%-14s %12s %12s %12s %14s %14s\n", param_name, "eBPF(Mpps)",
              "Kernel(Mpps)", "eNetSTL(Mpps)", "vs eBPF(%)", "vs Kernel(%)");
}

inline void PrintSweepRow(const std::string& param, double ebpf_mpps,
                          double kernel_mpps, double enetstl_mpps) {
  std::printf("%-14s %12.3f %12.3f %12.3f %+14.1f %+14.1f\n", param.c_str(),
              ebpf_mpps, kernel_mpps, enetstl_mpps,
              PercentGain(enetstl_mpps, ebpf_mpps),
              -PercentGap(enetstl_mpps, kernel_mpps));
}

struct SweepAccumulator {
  double gain_sum = 0;
  double gap_sum = 0;
  double gain_max = -1e9;
  int rows = 0;

  void Add(double ebpf_mpps, double kernel_mpps, double enetstl_mpps) {
    const double gain = PercentGain(enetstl_mpps, ebpf_mpps);
    gain_sum += gain;
    gain_max = gain > gain_max ? gain : gain_max;
    gap_sum += PercentGap(enetstl_mpps, kernel_mpps);
    ++rows;
  }

  void PrintSummary(const char* label) const {
    if (rows == 0) {
      return;
    }
    std::printf(
        "-- %s: avg +%.1f%% vs eBPF (peak +%.1f%%), avg -%.1f%% vs kernel\n",
        label, gain_sum / rows, gain_max, gap_sum / rows);
  }
};

// Short git revision of the working tree, "unknown" outside a checkout.
inline std::string GitRevision() {
  std::string rev = "unknown";
#if defined(__unix__) || defined(__APPLE__)
  if (FILE* p = ::popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof(buf), p) != nullptr) {
      std::string s(buf);
      while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) {
        s.pop_back();
      }
      if (!s.empty()) {
        rev = s;
      }
    }
    ::pclose(p);
  }
#endif
  return rev;
}

// Escape a string for embedding in a JSON double-quoted literal.
inline std::string JsonEscape(const std::string& s) {
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
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
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

// Machine-readable bench output. Each bench binary constructs one JsonReport
// with its name and argc/argv; when `--json <path>` was passed, every Add()ed
// row is written to <path> at destruction as
//   {"bench": "...", "schema_version": N, "git_rev": "...",
//    ["obs": {...},]  // only when SetObsBlock was called (schema v3)
//    "rows": [{"series": "...", "param": "...", "mpps": ...}, ...]}
// Without --json the report is inert, so the human-readable tables are
// unchanged.
class JsonReport {
 public:
  JsonReport(std::string bench_name, int argc, char** argv)
      : bench_(std::move(bench_name)) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::string(argv[i]) == "--json") {
        path_ = argv[i + 1];
        break;
      }
    }
  }

  ~JsonReport() { Write(); }

  bool enabled() const { return !path_.empty(); }

  void Add(const std::string& series, const std::string& param, double mpps) {
    rows_.push_back({series, param, mpps});
  }

  // Attaches a pre-rendered JSON object (obs::ObsReportJson) emitted as the
  // report's "obs" field. The value must be one self-contained JSON object.
  void SetObsBlock(std::string obs_json) { obs_json_ = std::move(obs_json); }

  // Attaches a pre-rendered JSON object (obs::SloReportJson) emitted as the
  // report's "slo" field (schema v4). One self-contained JSON object.
  void SetSloBlock(std::string slo_json) { slo_json_ = std::move(slo_json); }

  void Write() {
    if (path_.empty() || written_) {
      return;
    }
    FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "JsonReport: cannot open %s\n", path_.c_str());
      return;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"%s\",\n  \"schema_version\": %d,\n"
                 "  \"git_rev\": \"%s\",\n",
                 JsonEscape(bench_).c_str(), kJsonSchemaVersion,
                 JsonEscape(GitRevision()).c_str());
    if (!obs_json_.empty()) {
      std::fprintf(f, "  \"obs\": %s,\n", obs_json_.c_str());
    }
    if (!slo_json_.empty()) {
      std::fprintf(f, "  \"slo\": %s,\n", slo_json_.c_str());
    }
    std::fprintf(f, "  \"rows\": [\n");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f,
                   "    {\"series\": \"%s\", \"param\": \"%s\", "
                   "\"mpps\": %.6f}%s\n",
                   JsonEscape(rows_[i].series).c_str(),
                   JsonEscape(rows_[i].param).c_str(), rows_[i].mpps,
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    written_ = true;
    std::printf("-- json report written to %s (%zu rows)\n", path_.c_str(),
                rows_.size());
  }

 private:
  struct Row {
    std::string series;
    std::string param;
    double mpps;
  };

  std::string bench_;
  std::string path_;
  std::string obs_json_;
  std::string slo_json_;
  std::vector<Row> rows_;
  bool written_ = false;
};

}  // namespace bench

#endif  // ENETSTL_BENCH_BENCH_UTIL_H_
