#include "core/noisy_oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/hash.h"
#include "common/status.h"

namespace robustqp {

namespace {
constexpr double kBudgetEps = 1e-9;
}  // namespace

NoisyOracle::NoisyOracle(const Ess* ess, GridLoc qa, double delta,
                         uint64_t seed)
    : ess_(ess), qa_(std::move(qa)), delta_(delta), seed_(seed) {
  RQP_CHECK(delta_ >= 0.0);
  qa_sel_ = ess_->SelAt(qa_);
}

double NoisyOracle::ErrorFactor(const Plan& plan) const {
  if (delta_ == 0.0) return 1.0;
  const uint64_t h = Fnv1a(plan.signature(), kFnvOffsetBasis ^ seed_);
  // Uniform in [-1, 1] from the hash, then exponentiated into the
  // multiplicative band [1/(1+delta), (1+delta)].
  const double u =
      2.0 * (static_cast<double>(h % 1000003ull) / 1000002.0) - 1.0;
  return std::pow(1.0 + delta_, u);
}

ExecOutcome NoisyOracle::ExecuteFull(const Plan& plan, double budget) {
  ExecOutcome out;
  const double cost =
      ess_->optimizer().PlanCost(plan, qa_sel_) * ErrorFactor(plan);
  if (cost <= budget * (1.0 + kBudgetEps)) {
    out.completed = true;
    out.cost_charged = cost;
  } else {
    out.completed = false;
    out.cost_charged = budget;
  }
  return out;
}

ExecOutcome NoisyOracle::ExecuteSpill(const Plan& plan, int dim, double budget,
                                      const std::vector<double>& learned) {
  ExecOutcome out;
  const int node_id = plan.EppNodeId(dim);
  RQP_CHECK(node_id >= 0);
  const PlanNode& spilled = plan.node(node_id);
  const double factor = ErrorFactor(plan);

  EssPoint q = qa_sel_;
  for (int d = 0; d < ess_->dims(); ++d) {
    if (learned[static_cast<size_t>(d)] >= 0.0) {
      q[static_cast<size_t>(d)] = learned[static_cast<size_t>(d)];
    }
  }
  auto actual_spill_cost = [&](double sel) {
    q[static_cast<size_t>(dim)] = sel;
    return ess_->optimizer().SubtreeCost(spilled, q) * factor;
  };

  const double true_sel = qa_sel_[static_cast<size_t>(dim)];
  const double cost_at_truth = actual_spill_cost(true_sel);
  if (cost_at_truth <= budget * (1.0 + kBudgetEps)) {
    out.completed = true;
    out.cost_charged = cost_at_truth;
    out.learned_sel = true_sel;
    out.learned_floor = qa_[static_cast<size_t>(dim)];
    return out;
  }
  out.completed = false;
  out.cost_charged = budget;
  // Certified floor: the abort only proves the *modelled* spill cost
  // exceeded budget / (1 + delta), so the sound inversion divides the
  // budget by the worst-case optimistic error before searching.
  const LogAxis& axis = ess_->axis();
  const double sound_budget = budget / (1.0 + delta_) * factor;
  int lo = -1;
  int hi = axis.points() - 1;
  while (lo < hi) {
    const int mid = (lo + hi + 1) / 2;
    if (actual_spill_cost(axis.value(mid)) <= sound_budget * (1.0 + kBudgetEps)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  out.learned_floor = lo;
  out.learned_sel = lo >= 0 ? axis.value(lo) : 0.0;
  return out;
}

double NoisyOracle::ActualOptimalCost() const {
  double best = std::numeric_limits<double>::infinity();
  for (const Plan* p : ess_->pool().plans()) {
    best = std::min(best,
                    ess_->optimizer().PlanCost(*p, qa_sel_) * ErrorFactor(*p));
  }
  return best;
}

}  // namespace robustqp
