#include "core/planbouquet.h"

#include <algorithm>
#include <bit>
#include <queue>
#include <set>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/plan_diagram.h"
#include "core/recovery.h"
#include "optimizer/plan_set_coster.h"

namespace robustqp {

PlanBouquet::PlanBouquet(const Ess* ess) : PlanBouquet(ess, Options{}) {}

PlanBouquet::PlanBouquet(const Ess* ess, const PlanDiagram& diagram,
                         Options options)
    : ess_(ess), options_(options) {
  RQP_CHECK(&diagram.ess() == ess);
  contour_sets_.resize(static_cast<size_t>(ess->num_contours()));
  for (int i = 0; i < ess->num_contours(); ++i) {
    rho_original_ = std::max(
        rho_original_, static_cast<int>(ess->ContourPlans(i).size()));
    contour_sets_[static_cast<size_t>(i)] = diagram.ContourPlans(i);
    rho_ = std::max(
        rho_, static_cast<int>(contour_sets_[static_cast<size_t>(i)].size()));
  }
}

PlanBouquet::PlanBouquet(const Ess* ess, Options options)
    : ess_(ess), options_(options) {
  const double lambda = effective_lambda();
  contour_sets_.resize(static_cast<size_t>(ess->num_contours()));
  ThreadPool pool;  // shared by the per-contour coverage fills

  for (int i = 0; i < ess->num_contours(); ++i) {
    const std::vector<int64_t>& frontier = ess->FrontierLocations(i);
    std::vector<const Plan*> posp = ess->ContourPlans(i);
    rho_original_ = std::max(rho_original_, static_cast<int>(posp.size()));

    if (!options_.anorexic || posp.size() <= 1) {
      contour_sets_[static_cast<size_t>(i)] = std::move(posp);
    } else {
      // Anorexic reduction as per-contour greedy set cover: pick plans
      // until every frontier location is covered by a plan whose cost
      // there stays within (1 + lambda) of the contour budget.
      const double limit =
          ess->ContourCost(i) * (1.0 + lambda) * (1.0 + 1e-12);
      // coverage: per plan, a bitset over the frontier locations the plan
      // covers, filled by batched costing of the whole contour set on the
      // pool. A coster block is one 64-bit word, so concurrent blocks never
      // write the same word.
      static_assert(PlanSetCoster::kBlock == 64);
      const size_t words = (frontier.size() + 63) / 64;
      std::vector<uint64_t> coverage(posp.size() * words, 0);
      PlanSetCoster(ess->optimizer(), posp)
          .ForEachBlock(
              static_cast<int64_t>(frontier.size()),
              [&](int64_t l) {
                return ess->SelAt(
                    ess->FromLinear(frontier[static_cast<size_t>(l)]));
              },
              &pool,
              [&](int64_t begin, int64_t end, const double* const* costs) {
                for (size_t p = 0; p < posp.size(); ++p) {
                  uint64_t bits = 0;
                  for (int64_t k = 0; k < end - begin; ++k) {
                    bits |= uint64_t{costs[p][k] <= limit} << k;
                  }
                  coverage[p * words + static_cast<size_t>(begin / 64)] = bits;
                }
              });
      // Lazy greedy (gains only shrink as locations get covered, so a
      // stale priority-queue entry is an upper bound).
      std::vector<uint64_t> covered(words, 0);
      const auto gain_of = [&](size_t p) {
        int gain = 0;
        for (size_t w = 0; w < words; ++w) {
          gain += std::popcount(coverage[p * words + w] & ~covered[w]);
        }
        return gain;
      };
      size_t remaining = frontier.size();
      std::priority_queue<std::pair<int, size_t>> pq;
      for (size_t p = 0; p < posp.size(); ++p) pq.push({gain_of(p), p});
      std::vector<const Plan*> chosen;
      while (remaining > 0) {
        RQP_CHECK(!pq.empty());
        const size_t p = pq.top().second;
        pq.pop();
        const int gain = gain_of(p);
        if (!pq.empty() && gain < pq.top().first) {
          pq.push({gain, p});
          continue;
        }
        // Every location is coverable by its own optimal plan, so the
        // greedy step always makes progress.
        RQP_CHECK(gain > 0);
        chosen.push_back(posp[p]);
        for (size_t w = 0; w < words; ++w) {
          covered[w] |= coverage[p * words + w];
        }
        remaining -= static_cast<size_t>(gain);
      }
      contour_sets_[static_cast<size_t>(i)] = std::move(chosen);
    }
    rho_ = std::max(
        rho_, static_cast<int>(contour_sets_[static_cast<size_t>(i)].size()));
  }
}

int PlanBouquet::BouquetSize() const {
  std::set<const Plan*> distinct;
  for (const auto& set : contour_sets_) distinct.insert(set.begin(), set.end());
  return static_cast<int>(distinct.size());
}

DiscoveryResult PlanBouquet::RunImpl(ExecutionOracle* oracle) const {
  DiscoveryResult result;
  const double lambda = effective_lambda();
  ContourBudgetMonitor monitor;
  double budget = 0.0;
  for (int i = 0; i < ess_->num_contours(); ++i) {
    budget = monitor.Clamp(
        ess_->ContourCost(i) * (1.0 + lambda) * options_.budget_inflation,
        &result.robustness);
    for (const Plan* plan : contour_sets_[static_cast<size_t>(i)]) {
      const ExecOutcome outcome = oracle->ExecuteFull(*plan, budget);
      result.total_cost += outcome.cost_charged;
      ExecutionStep step;
      step.contour = i;
      step.plan_name = plan->display_name();
      step.spill_dim = -1;
      step.budget = budget;
      step.cost_charged = outcome.cost_charged;
      step.completed = outcome.completed;
      result.steps.push_back(std::move(step));
      if (outcome.completed) {
        result.completed = true;
        result.final_contour = i;
        return result;
      }
    }
  }
  result.completed = false;
  result.final_contour = ess_->num_contours() - 1;
  // Without faults the last contour always completes; under injection,
  // retries can burn every contour budget — escalate past cmax.
  if (FaultInjector::Armed()) {
    EscalateToCompletion(oracle, *ess_, budget, &result);
  }
  return result;
}

}  // namespace robustqp
