// The four benchmark workloads. Each builds its inputs from the run seed
// only and runs under the shared driver (driver.h).
#ifndef REPOBENCH_WORKLOADS_H_
#define REPOBENCH_WORKLOADS_H_

#include <memory>

#include "driver.h"

namespace rb {

std::unique_ptr<Workload> MakeChain4(u64 seed);
std::unique_ptr<Workload> MakeChainSwap(u64 seed);
std::unique_ptr<Workload> MakeNatChurn(u64 seed);
std::unique_ptr<Workload> MakeScaleoutSkew(u64 seed);

}  // namespace rb

#endif  // REPOBENCH_WORKLOADS_H_
