// The benchmark's four workloads. Each runs its set-up, a timed closed
// loop over whole rounds of a seeded request list, the output checks and,
// in a traced run, a span-recording replay that yields the per-layer
// metrics.

#ifndef ROBUSTQP_PERFBENCH_WORKLOADS_H_
#define ROBUSTQP_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

struct RunOutput {
  Metrics metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  CheckLog checks;
};

/// Runs workload `args.workload`; false for an unknown name.
bool RunWorkload(const Args& args, RunOutput* out);

}  // namespace perfbench

#endif  // ROBUSTQP_PERFBENCH_WORKLOADS_H_
