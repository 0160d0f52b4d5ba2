// Host fingerprint stamped on every report: absolute figures are only
// comparable between runs whose fingerprints match.
#ifndef REPOBENCH_FINGERPRINT_H_
#define REPOBENCH_FINGERPRINT_H_

#include <string>

namespace rb {

// One-line JSON object: cpu model, nproc, SIMD flags (compiled-in and
// reported by the CPU), compiler, build type, and ENETSTL_OBS.
std::string HostFingerprintJson();

}  // namespace rb

#endif  // REPOBENCH_FINGERPRINT_H_
