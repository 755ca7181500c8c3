#include "core/plan_diagram.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/status.h"
#include "optimizer/plan_set_coster.h"

namespace robustqp {

PlanDiagram::PlanDiagram(const Ess* ess) : ess_(ess) {
  const int64_t total = ess->num_locations();
  assignment_.resize(static_cast<size_t>(total));
  cost_.resize(static_cast<size_t>(total));
  for (int64_t lin = 0; lin < total; ++lin) {
    assignment_[static_cast<size_t>(lin)] = ess->OptimalPlan(lin);
    cost_[static_cast<size_t>(lin)] = ess->OptimalCost(lin);
  }
}

std::vector<const Plan*> PlanDiagram::DistinctPlans() const {
  std::vector<const Plan*> plans;
  for (const Plan* p : assignment_) {
    if (std::find(plans.begin(), plans.end(), p) == plans.end()) {
      plans.push_back(p);
    }
  }
  return plans;
}

PlanDiagramStats PlanDiagram::Stats() const {
  PlanDiagramStats stats;
  std::map<const Plan*, int64_t> area;
  for (const Plan* p : assignment_) ++area[p];
  stats.num_plans = static_cast<int>(area.size());
  if (area.empty()) return stats;

  const double total = static_cast<double>(assignment_.size());
  std::vector<double> fractions;
  fractions.reserve(area.size());
  for (const auto& [plan, n] : area) {
    fractions.push_back(static_cast<double>(n) / total);
  }
  std::sort(fractions.begin(), fractions.end());
  stats.largest_region_fraction = fractions.back();

  // Gini over the sorted area fractions.
  const double n = static_cast<double>(fractions.size());
  double weighted = 0.0;
  for (size_t i = 0; i < fractions.size(); ++i) {
    weighted += (static_cast<double>(i) + 1.0) * fractions[i];
  }
  // Sum of fractions is 1 by construction.
  stats.area_gini = (2.0 * weighted - (n + 1.0)) / n;
  return stats;
}

int PlanDiagram::Reduce(double lambda) {
  RQP_CHECK(lambda >= 0.0);
  const int64_t total = ess_->num_locations();
  const std::vector<const Plan*> plans = DistinctPlans();
  const int before = static_cast<int>(plans.size());

  // coverage[p] = locations plan p can own within the threshold, in
  // ascending order (the serial coster hands blocks over in order).
  std::vector<std::vector<int64_t>> covers(plans.size());
  std::vector<std::vector<double>> cover_costs(plans.size());
  PlanSetCoster(ess_->optimizer(), plans)
      .ForEachBlock(
          total,
          [&](int64_t lin) { return ess_->SelAt(ess_->FromLinear(lin)); },
          /*pool=*/nullptr,
          [&](int64_t begin, int64_t end, const double* const* costs) {
            for (size_t p = 0; p < plans.size(); ++p) {
              for (int64_t lin = begin; lin < end; ++lin) {
                const double c = costs[p][lin - begin];
                if (c <= ess_->OptimalCost(lin) * (1.0 + lambda) *
                             (1.0 + 1e-12)) {
                  covers[p].push_back(lin);
                  cover_costs[p].push_back(c);
                }
              }
            }
          });

  // Lazy greedy set cover.
  std::vector<char> covered(static_cast<size_t>(total), 0);
  int64_t remaining = total;
  std::priority_queue<std::pair<int64_t, size_t>> pq;
  for (size_t p = 0; p < plans.size(); ++p) {
    pq.push({static_cast<int64_t>(covers[p].size()), p});
  }
  std::vector<char> chosen(plans.size(), 0);
  while (remaining > 0) {
    RQP_CHECK(!pq.empty());
    auto [stale, p] = pq.top();
    pq.pop();
    int64_t gain = 0;
    for (int64_t lin : covers[p]) {
      if (!covered[static_cast<size_t>(lin)]) ++gain;
    }
    if (!pq.empty() && gain < pq.top().first) {
      pq.push({gain, p});
      continue;
    }
    RQP_CHECK(gain > 0);
    chosen[p] = 1;
    for (int64_t lin : covers[p]) {
      if (!covered[static_cast<size_t>(lin)]) {
        covered[static_cast<size_t>(lin)] = 1;
        --remaining;
      }
    }
  }

  // Reassign every location to the cheapest chosen plan covering it.
  std::vector<double> best(static_cast<size_t>(total),
                           std::numeric_limits<double>::infinity());
  std::vector<const Plan*> owner(static_cast<size_t>(total), nullptr);
  for (size_t p = 0; p < plans.size(); ++p) {
    if (!chosen[p]) continue;
    for (size_t k = 0; k < covers[p].size(); ++k) {
      const int64_t lin = covers[p][k];
      if (cover_costs[p][k] < best[static_cast<size_t>(lin)]) {
        best[static_cast<size_t>(lin)] = cover_costs[p][k];
        owner[static_cast<size_t>(lin)] = plans[p];
      }
    }
  }
  for (int64_t lin = 0; lin < total; ++lin) {
    RQP_CHECK(owner[static_cast<size_t>(lin)] != nullptr);
    assignment_[static_cast<size_t>(lin)] = owner[static_cast<size_t>(lin)];
    cost_[static_cast<size_t>(lin)] = best[static_cast<size_t>(lin)];
  }
  return before - static_cast<int>(DistinctPlans().size());
}

std::vector<const Plan*> PlanDiagram::ContourPlans(int contour) const {
  std::vector<const Plan*> plans;
  for (int64_t lin : ess_->FrontierLocations(contour)) {
    const Plan* p = assignment_[static_cast<size_t>(lin)];
    if (std::find(plans.begin(), plans.end(), p) == plans.end()) {
      plans.push_back(p);
    }
  }
  return plans;
}

int PlanDiagram::MaxContourDensity() const {
  int rho = 0;
  for (int i = 0; i < ess_->num_contours(); ++i) {
    rho = std::max(rho, static_cast<int>(ContourPlans(i).size()));
  }
  return rho;
}

}  // namespace robustqp
