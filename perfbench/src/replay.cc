#include "replay.h"

#include <algorithm>

#include "core/alignedbound.h"
#include "core/planbouquet.h"
#include "core/spillbound.h"
#include "exec/executor.h"
#include "feedback/warm_start.h"

namespace perfbench {

using namespace robustqp;

std::unique_ptr<DiscoveryAlgorithm> MakeAlgorithm(RobustnessMode mode,
                                                  const Ess* ess) {
  switch (mode) {
    case RobustnessMode::kPlanBouquet:
      return std::make_unique<PlanBouquet>(ess);
    case RobustnessMode::kSpillBound:
      return std::make_unique<SpillBound>(ess);
    case RobustnessMode::kAlignedBound:
      return std::make_unique<AlignedBound>(ess);
    case RobustnessMode::kNative:
      break;
  }
  return nullptr;
}

void AddOracleCounts(const TimingOracle& oracle, ReplayCounters* c) {
  c->executions += oracle.executions;
  c->spill_executions += oracle.spill_executions;
  c->completed_executions += oracle.completed;
  c->charged += oracle.charged;
  c->aborted_charged += oracle.aborted_charged;
}

ReplayResult ReplayRequest(const ServiceRequest& req, int64_t id,
                           ContextCache* cache, feedback::FeedbackStore* store,
                           Tracer* tracer, ReplayCounters* c) {
  ReplayResult out;
  ScopedSpan root(tracer, id, "request");
  const int parent = root.id();

  std::shared_ptr<const ContextCache::Entry> ctx;
  {
    bool hit = false;
    ScopedSpan span(tracer, id, "context.get", parent);
    Result<std::shared_ptr<const ContextCache::Entry>> got =
        cache->Get(req.query_id, req.options.ToEssConfig(), req.options.encoding,
                   req.options.use_compression, req.options.storage, &hit);
    if (!got.ok()) return out;
    ctx = got.MoveValue();
    // A miss is a context build: rename the span so build time and hit
    // latency aggregate separately.
    tracer->Rename(span.id(), hit ? "context.get_hit" : "ess.build");
    if (!hit) c->optimizer_calls += ctx->ess->build_stats().optimizer_calls;
  }
  const Ess& ess = *ctx->ess;
  const int dims = ess.dims();

  GridLoc qa(static_cast<size_t>(dims), ess.points() / 2);
  if (!req.qa.empty()) {
    if (static_cast<int>(req.qa.size()) != dims) return out;
    for (int d = 0; d < dims; ++d) {
      qa[static_cast<size_t>(d)] = ess.axis().NearestIndex(req.qa[static_cast<size_t>(d)]);
    }
  }
  const EssPoint qa_sel = ess.SelAt(qa);

  const bool use_fb = req.options.use_feedback && store != nullptr;
  feedback::FeedbackStore::Calibration cal;
  std::string fb_key;
  if (use_fb) {
    ScopedSpan span(tracer, id, "feedback.get", parent);
    fb_key = feedback::FeedbackStore::Key(req.query_id, dims,
                                          StorageBackendName(req.options.storage));
    cal = store->Get(fb_key);
    c->feedback_hits += cal.valid ? 1 : 0;
  }

  std::unique_ptr<Executor> executor;
  if (req.use_engine) {
    executor = std::make_unique<Executor>(ctx->catalog.get(), ess.config().cost_model,
                                          req.options.ToExecutorOptions());
  }

  std::vector<double> observed;
  int observed_contour = -1;
  bool completed = false;
  double cost_used = 0.0;

  if (req.mode == RobustnessMode::kNative) {
    EssPoint qe = ess.optimizer().estimator().NativeEstimatePoint();
    if (use_fb && cal.valid && static_cast<int>(cal.sel.size()) == dims) {
      for (int d = 0; d < dims; ++d) {
        qe[static_cast<size_t>(d)] = std::min(
            1.0, std::max(cal.sel[static_cast<size_t>(d)], ess.axis().value(0)));
      }
    }
    std::unique_ptr<Plan> plan;
    {
      ScopedSpan span(tracer, id, "optimizer.native_plan", parent);
      plan = ess.optimizer().Optimize(qe);
    }
    if (req.use_engine) {
      ScopedSpan span(tracer, id, "exec.full", parent);
      Result<ExecutionResult> res = executor->Execute(*plan, req.budget);
      if (!res.ok()) return out;
      ++c->engine_calls;
      completed = res.value().completed;
      c->engine_aborted += completed ? 0 : 1;
      cost_used = res.value().cost_used;
      if (completed) observed = ObservedEppSelectivities(*plan, res.value());
    } else {
      ScopedSpan span(tracer, id, "optimizer.recost", parent);
      completed = true;
      cost_used = ess.optimizer().PlanCost(*plan, qa_sel);
      observed = qa_sel;
    }
  } else {
    std::unique_ptr<DiscoveryAlgorithm> algo;
    {
      ScopedSpan span(tracer, id, "core.algo_build", parent);
      algo = MakeAlgorithm(req.mode, &ess);
    }
    std::unique_ptr<ExecutionOracle> inner;
    if (req.use_engine) {
      inner = std::make_unique<EngineOracle>(executor.get());
    } else {
      auto so = std::make_unique<SimulatedOracle>(&ess, qa);
      so->set_num_shards(req.options.num_shards);
      inner = std::move(so);
    }
    WarmStartHint hint;
    if (use_fb) {
      ScopedSpan span(tracer, id, "feedback.hint", parent);
      hint = feedback::MakeWarmStartHint(ess, cal);
    }
    DiscoveryResult result;
    ScopedSpan run(tracer, id, "core.run", parent);
    TimingOracle oracle(inner.get(), tracer, id, run.id(),
                        req.use_engine ? "exec.full" : "optimizer.recost",
                        req.use_engine ? "exec.spill" : "optimizer.recost");
    result = algo->Run(&oracle, hint.valid ? &hint : nullptr);
    completed = result.completed;
    cost_used = result.total_cost;
    AddOracleCounts(oracle, c);
    if (req.use_engine) {
      c->engine_calls += oracle.executions;
      c->engine_aborted += oracle.executions - oracle.completed;
    }
    c->discovery_cost += result.total_cost;
    c->warm_cost += result.warm_cost;
    c->warm_starts += result.warm_started ? 1 : 0;
    c->warm_completions += result.warm_completed ? 1 : 0;
    if (completed) {
      observed = oracle.ObservedSelectivities();
      observed_contour = result.final_contour;
    }
  }

  if (use_fb && completed && !observed.empty()) {
    feedback::FeedbackStore::DriftSignal drift;
    {
      ScopedSpan span(tracer, id, "feedback.observe", parent);
      drift = store->Observe(fb_key, observed, cost_used, observed_contour);
    }
    if (drift.drifted) {
      ++c->drift_events;
      ScopedSpan span(tracer, id, "context.invalidate", parent);
      cache->InvalidateQuery(req.query_id);
    }
  }
  out.ok = completed;
  out.cost_used = cost_used;
  return out;
}

}  // namespace perfbench
