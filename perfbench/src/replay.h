// Layer-by-layer replay of one service request through the public calls
// QueryService makes: ContextCache::Get, FeedbackStore::Get and
// MakeWarmStartHint, algorithm construction, DiscoveryAlgorithm::Run
// through a TimingOracle around SimulatedOracle or EngineOracle, and
// FeedbackStore::Observe with drift invalidation. Each call is a span, so
// the traced run can attribute a request's time to layers. The replay
// must reproduce the served response's cost_used exactly; the traced run
// checks that it does.

#ifndef ROBUSTQP_PERFBENCH_REPLAY_H_
#define ROBUSTQP_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bench.h"
#include "feedback/feedback_store.h"
#include "server/context_cache.h"

namespace perfbench {

/// Work counted over a replay, summed across requests.
struct ReplayCounters {
  int64_t executions = 0;
  int64_t spill_executions = 0;
  int64_t completed_executions = 0;
  double charged = 0.0;
  double aborted_charged = 0.0;
  int64_t engine_calls = 0;
  int64_t engine_aborted = 0;
  double discovery_cost = 0.0;
  double warm_cost = 0.0;
  int64_t feedback_hits = 0;
  int64_t warm_starts = 0;
  int64_t warm_completions = 0;
  int64_t drift_events = 0;
  int64_t optimizer_calls = 0;  // ESS builds triggered by the replay
};

struct ReplayResult {
  bool ok = false;
  double cost_used = 0.0;
};

/// Adds what `oracle` counted to `counters`.
void AddOracleCounts(const TimingOracle& oracle, ReplayCounters* counters);

/// The discovery algorithm a service request's mode names (null for
/// native), constructed as QueryService constructs it per request.
std::unique_ptr<robustqp::DiscoveryAlgorithm> MakeAlgorithm(RobustnessMode mode,
                                                            const robustqp::Ess* ess);

/// Replays `req` (request id `id`) against `cache` and `store` (null =
/// feedback off), recording spans into `tracer` and work into `counters`.
ReplayResult ReplayRequest(const robustqp::ServiceRequest& req, int64_t id,
                           robustqp::ContextCache* cache,
                           robustqp::feedback::FeedbackStore* store,
                           Tracer* tracer, ReplayCounters* counters);

}  // namespace perfbench

#endif  // ROBUSTQP_PERFBENCH_REPLAY_H_
