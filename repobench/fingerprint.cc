#include "fingerprint.h"

#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/telemetry.h"

#ifndef REPOBENCH_BUILD_TYPE
#define REPOBENCH_BUILD_TYPE "unknown"
#endif

namespace rb {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

// Reads the first "model name" and "flags" lines of /proc/cpuinfo.
void ReadCpuInfo(std::string* model, std::string* flags) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line) && (model->empty() || flags->empty())) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) {
      continue;
    }
    std::string key = line.substr(0, colon);
    while (!key.empty() && (key.back() == ' ' || key.back() == '\t')) {
      key.pop_back();
    }
    const std::string value =
        colon + 2 <= line.size() ? line.substr(colon + 2) : std::string();
    if (key == "model name" && model->empty()) {
      *model = value;
    } else if (key == "flags" && flags->empty()) {
      *flags = " " + value + " ";
    }
  }
}

}  // namespace

std::string HostFingerprintJson() {
  std::string model;
  std::string flags;
  ReadCpuInfo(&model, &flags);
  std::vector<std::string> cpu_simd;
  for (const char* f : {"sse4_2", "avx2", "bmi2", "avx512f", "avx512bw"}) {
    if (flags.find(std::string(" ") + f + " ") != std::string::npos) {
      cpu_simd.push_back(f);
    }
  }
  std::vector<std::string> built_simd;
#ifdef __SSE4_2__
  built_simd.push_back("sse4_2");
#endif
#ifdef __AVX2__
  built_simd.push_back("avx2");
#endif
#ifdef __BMI2__
  built_simd.push_back("bmi2");
#endif
#ifdef __AVX512F__
  built_simd.push_back("avx512f");
#endif
  const auto join = [](const std::vector<std::string>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      s += (i ? ",\"" : "\"") + v[i] + "\"";
    }
    return s + "]";
  };
  std::ostringstream out;
  out << "{\"cpu\": \"" << JsonEscape(model.empty() ? "unknown" : model)
      << "\", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"simd_cpu\": " << join(cpu_simd)
      << ", \"simd_built\": " << join(built_simd) << ", \"compiler\": \""
#ifdef __clang__
      << "clang "
#else
      << "gcc "
#endif
      << JsonEscape(__VERSION__) << "\", \"build_type\": \""
      << REPOBENCH_BUILD_TYPE << "\", \"enetstl_obs\": "
      << (obs::kCompiledIn ? "true" : "false") << "}";
  return out.str();
}

}  // namespace rb
