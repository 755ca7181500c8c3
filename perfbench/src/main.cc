// End-to-end benchmark program for robust query processing.
//
//   rqp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <path>]
//
// Prints the host's core count and the build type, then, as its last
// line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ones. Exits non-zero when an output check fails.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: rqp_perfbench --workload <warm_sim|warm_engine|cold_churn|"
               "eval_sweep> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <path>]\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (argc % 2 != 1 || args.workload.empty()) {
    Usage();
    return 2;
  }
  std::printf("host nproc=%u build=%s workload=%s seed=%llu seconds=%g trace=%d\n",
              std::thread::hardware_concurrency(), RQP_BENCH_BUILD_TYPE,
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::fflush(stdout);

  perfbench::RunOutput out;
  if (!perfbench::RunWorkload(args, &out)) {
    Usage();
    return 2;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              out.checks.ok() ? "true" : "false",
              static_cast<long long>(out.attempted), static_cast<long long>(out.failed),
              out.metrics.Json().c_str());
  return out.checks.ok() ? 0 : 1;
}
