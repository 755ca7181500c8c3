#include "harness/evaluator.h"

#include <algorithm>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/oracle.h"
#include "feedback/warm_start.h"
#include "optimizer/plan_set_coster.h"

namespace robustqp {

namespace {

int ResolveThreads(const EvalOptions& opts) {
  return opts.num_threads > 0 ? opts.num_threads : ThreadPool::DefaultThreads();
}

/// Fills stats.mso / worst_location / aso from the completed subopt
/// vector. Serial left-to-right scan: the same association order
/// regardless of how the vector was filled, so the aggregate is
/// bit-identical at any thread count (first-location tie-break for MSO).
void ReduceStats(SuboptimalityStats* stats) {
  double sum = 0.0;
  for (size_t lin = 0; lin < stats->subopt.size(); ++lin) {
    const double s = stats->subopt[lin];
    sum += s;
    if (s > stats->mso) {
      stats->mso = s;
      stats->worst_location = static_cast<int64_t>(lin);
    }
  }
  stats->aso = sum / static_cast<double>(stats->subopt.size());
}

}  // namespace

EvalOptions MakeEvalOptions(const RequestOptions& request) {
  EvalOptions opts;
  opts.num_threads = request.ess_threads;
  opts.fault_spec = request.fault_spec;
  opts.fault_seed = request.fault_seed;
  opts.num_shards = request.num_shards;
  return opts;
}

double SuboptimalityStats::FractionWithin(double bound) const {
  if (subopt.empty()) return 0.0;
  int64_t n = 0;
  for (double s : subopt) {
    if (s <= bound) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(subopt.size());
}

double SuboptimalityStats::Percentile(double p) const {
  RQP_CHECK(p > 0.0 && p <= 100.0);
  if (subopt.empty()) return 0.0;
  std::vector<double> sample = subopt;
  const size_t idx = static_cast<size_t>(
      std::min<double>(static_cast<double>(sample.size()) - 1.0,
                       p / 100.0 * static_cast<double>(sample.size())));
  // nth_element: O(n) selection instead of a full sort.
  std::nth_element(sample.begin(),
                   sample.begin() + static_cast<std::ptrdiff_t>(idx),
                   sample.end());
  return sample[idx];
}

SuboptimalityStats Evaluate(const DiscoveryAlgorithm& algo, const Ess& ess,
                            const EvalOptions& opts) {
  SuboptimalityStats stats;
  const int64_t total = ess.num_locations();
  stats.subopt.resize(static_cast<size_t>(total));

  if (!opts.fault_spec.empty()) {
    const Status st =
        FaultInjector::Global().Configure(opts.fault_spec, opts.fault_seed);
    RQP_CHECK(st.ok());
  }
  const bool armed = FaultInjector::Armed();

  const int threads = ResolveThreads(opts);
  ThreadPool pool(threads);
  std::vector<double> worker_penalty(static_cast<size_t>(threads), 1.0);
  std::vector<RobustnessReport> worker_report(static_cast<size_t>(threads));
  std::vector<double> worker_clean(static_cast<size_t>(threads), 1.0);
  // One contiguous block of locations per worker; each worker clones the
  // algorithm once (cold memo caches that warm over its block) and builds
  // its own oracle per q_a. Per-location results are independent of the
  // partitioning — fault draws included, being keyed to the location —
  // so any thread count produces the same subopt vector.
  const Status run_status =
      ParallelFor(&pool, total, [&](int worker, int64_t begin, int64_t end) {
        const std::unique_ptr<DiscoveryAlgorithm> local = algo.Clone();
        double max_penalty = 1.0;
        RobustnessReport report;
        double max_clean = 1.0;
        for (int64_t lin = begin; lin < end; ++lin) {
          SimulatedOracle oracle(&ess, ess.FromLinear(lin));
          oracle.set_num_shards(opts.num_shards);
          DiscoveryResult result;
          if (armed) {
            FaultStreamScope scope(static_cast<uint64_t>(lin));
            result = local->Run(&oracle);
          } else {
            result = local->Run(&oracle);
          }
          RQP_CHECK(result.completed);
          double subopt = result.total_cost / ess.OptimalCost(lin);
          if (armed) {
            // Runtime invariant: sub-optimality below 1 means some cost
            // account went non-monotone (an injected corruption slipped
            // through) — clamp and report rather than poison the MSO.
            if (subopt < 1.0) {
              subopt = 1.0;
              ++report.pcm_violations;
            }
            const double clean =
                std::max(1.0, (result.total_cost -
                               result.robustness.retried_cost) /
                                  ess.OptimalCost(lin));
            max_clean = std::max(max_clean, clean);
            report.Merge(result.robustness);
          }
          stats.subopt[static_cast<size_t>(lin)] = subopt;
          max_penalty = std::max(max_penalty, result.max_replacement_penalty);
        }
        worker_penalty[static_cast<size_t>(worker)] = max_penalty;
        worker_report[static_cast<size_t>(worker)] = report;
        worker_clean[static_cast<size_t>(worker)] = max_clean;
      });
  RQP_CHECK(run_status.ok());
  // max() over doubles is exact, so the merge order cannot matter; the
  // report counters are integral, so their merge order cannot either.
  for (double p : worker_penalty) stats.max_penalty = std::max(stats.max_penalty, p);
  ReduceStats(&stats);
  if (armed) {
    double max_clean = 1.0;
    for (size_t w = 0; w < worker_report.size(); ++w) {
      stats.robustness.Merge(worker_report[w]);
      max_clean = std::max(max_clean, worker_clean[w]);
    }
    stats.robustness.mso_delta = std::max(0.0, stats.mso - max_clean);
    if (!opts.fault_spec.empty()) FaultInjector::Global().Disarm();
  }
  stats.composed_mso = shard::ComposeMsoBound(algo.MsoGuarantee(),
                                              opts.num_shards);
  return stats;
}

namespace {

/// Shared shape of the two native baselines: cost `plans` at every
/// location on the pool, set subopt[lin] = subopt(worst plan cost at lin,
/// optimal cost at lin), then reduce serially.
SuboptimalityStats EvaluateNative(
    const Ess& ess, const EvalOptions& opts,
    const std::vector<const Plan*>& plans,
    const std::function<double(double, double)>& subopt) {
  SuboptimalityStats stats;
  const int64_t total = ess.num_locations();
  stats.subopt.resize(static_cast<size_t>(total));
  ThreadPool pool(ResolveThreads(opts));
  PlanSetCoster(ess.optimizer(), plans)
      .ForEachBlock(
          total, [&](int64_t lin) { return ess.SelAt(ess.FromLinear(lin)); },
          &pool, [&](int64_t begin, int64_t end, const double* const* costs) {
            for (int64_t lin = begin; lin < end; ++lin) {
              double worst_cost = 0.0;
              for (size_t p = 0; p < plans.size(); ++p) {
                worst_cost = std::max(worst_cost, costs[p][lin - begin]);
              }
              stats.subopt[static_cast<size_t>(lin)] =
                  subopt(worst_cost, ess.OptimalCost(lin));
            }
          });
  ReduceStats(&stats);
  return stats;
}

}  // namespace

SuboptimalityStats EvaluateNativeWorstCase(const Ess& ess,
                                           const EvalOptions& opts) {
  return EvaluateNative(ess, opts, ess.pool().plans(),
                        [](double worst_cost, double opt_cost) {
                          return std::max(1.0, worst_cost / opt_cost);
                        });
}

SuboptimalityStats EvaluateNativeAtEstimate(const Ess& ess,
                                            const EvalOptions& opts) {
  const EssPoint qe = ess.optimizer().estimator().NativeEstimatePoint();
  const std::unique_ptr<Plan> plan = ess.optimizer().Optimize(qe);
  return EvaluateNative(ess, opts, {plan.get()},
                        [](double cost, double opt_cost) {
                          return cost / opt_cost;
                        });
}

std::vector<RepeatedRunStats> EvaluateRepeated(
    const DiscoveryAlgorithm& algo, const Ess& ess, const GridLoc& qa,
    const std::string& query_id, feedback::FeedbackStore* store, int repeats,
    const EvalOptions& opts) {
  std::vector<RepeatedRunStats> runs;
  if (repeats <= 0) return runs;
  runs.reserve(static_cast<size_t>(repeats));

  if (!opts.fault_spec.empty()) {
    const Status st =
        FaultInjector::Global().Configure(opts.fault_spec, opts.fault_seed);
    RQP_CHECK(st.ok());
  }
  const bool armed = FaultInjector::Armed();
  const std::string key = feedback::FeedbackStore::Key(query_id, ess.dims());
  const double opt_cost = ess.OptimalCost(qa);

  for (int i = 0; i < repeats; ++i) {
    RepeatedRunStats run;
    WarmStartHint hint;
    if (store != nullptr) {
      const feedback::FeedbackStore::Calibration cal = store->Get(key);
      run.feedback_hit = cal.valid;
      hint = feedback::MakeWarmStartHint(ess, cal);
    }

    SimulatedOracle oracle(&ess, qa);
    oracle.set_num_shards(opts.num_shards);
    DiscoveryResult result;
    if (armed) {
      FaultStreamScope scope(opts.fault_seed + static_cast<uint64_t>(i));
      result = algo.Run(&oracle, hint.valid ? &hint : nullptr);
    } else {
      result = algo.Run(&oracle, hint.valid ? &hint : nullptr);
    }

    run.completed = result.completed;
    run.total_cost = result.total_cost;
    run.suboptimality = opt_cost > 0.0 ? result.total_cost / opt_cost : 0.0;
    run.num_executions = result.num_executions();
    run.warm_started = result.warm_started;
    run.warm_completed = result.warm_completed;
    run.warm_fell_back = result.warm_fell_back;
    if (store != nullptr && result.completed) {
      run.drifted = store->Observe(key, oracle.ObservedSelectivities(),
                                   result.total_cost, result.final_contour)
                        .drifted;
    }
    runs.push_back(run);
  }

  if (!opts.fault_spec.empty()) FaultInjector::Global().Disarm();
  return runs;
}

std::vector<int64_t> SuboptHistogram(const SuboptimalityStats& stats,
                                     double width, int max_buckets) {
  std::vector<int64_t> buckets(static_cast<size_t>(max_buckets), 0);
  for (double s : stats.subopt) {
    int b = static_cast<int>((s - 1e-12) / width);
    b = std::clamp(b, 0, max_buckets - 1);
    ++buckets[static_cast<size_t>(b)];
  }
  return buckets;
}

}  // namespace robustqp
