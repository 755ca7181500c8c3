// Tests for the optimizer substrate: cardinality estimation with
// selectivity injection, DP optimality against brute-force plan
// enumeration, the constrained spill-dimension search, the Plan Cost
// Monotonicity property (Eq. (5)) that underpins every MSO guarantee, and
// the batched PlanSetCoster against per-pair PlanCost.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan_set_coster.h"
#include "server/context_cache.h"
#include "test_util.h"
#include "workloads/queries.h"

namespace robustqp {
namespace {

using testing_util::MakeBranchQuery;
using testing_util::MakeMixedEppQuery;
using testing_util::MakeStarQuery;
using testing_util::MakeTinyCatalog;

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override { catalog_ = MakeTinyCatalog(); }
  std::unique_ptr<Catalog> catalog_;
};

TEST_F(OptimizerTest, EstimatorNativeJoinSelectivity) {
  const Query q = MakeStarQuery(3);
  CardinalityEstimator est(catalog_.get(), &q);
  // f_fk1 has up to 100 distinct values, d1_k exactly 100 -> sel ~ 1/100.
  EXPECT_NEAR(est.NativeJoinSelectivity(0), 0.01, 0.0005);
  // d2_k has 400 distinct -> sel ~ 1/400.
  EXPECT_NEAR(est.NativeJoinSelectivity(1), 1.0 / 400, 0.0005);
}

TEST_F(OptimizerTest, EstimatorFilterSelectivity) {
  const Query q = MakeStarQuery(3);
  CardinalityEstimator est(catalog_.get(), &q);
  // d1_a uniform in [1,10], filter d1_a <= 3 -> ~0.3.
  EXPECT_NEAR(est.FilterSelectivity(0), 0.3, 0.1);
  // d2_a uniform in [1,20], filter <= 10 -> ~0.5.
  EXPECT_NEAR(est.FilterSelectivity(1), 0.5, 0.1);
}

TEST_F(OptimizerTest, EstimatorFilteredRowsAtLeastOne) {
  const Query q = MakeStarQuery(3);
  CardinalityEstimator est(catalog_.get(), &q);
  EXPECT_GE(est.FilteredRows(1, {0}, {}), 1.0);
  EXPECT_DOUBLE_EQ(est.RawRows(0), 4000.0);
}

TEST_F(OptimizerTest, EstimatorInjectionOverridesEppsOnly) {
  const Query q = MakeStarQuery(2);  // joins 0,1 epp; join 2 native
  CardinalityEstimator est(catalog_.get(), &q);
  const EssPoint inj = {0.5, 0.25};
  EXPECT_DOUBLE_EQ(est.JoinSelectivity(0, inj), 0.5);
  EXPECT_DOUBLE_EQ(est.JoinSelectivity(1, inj), 0.25);
  EXPECT_DOUBLE_EQ(est.JoinSelectivity(2, inj), est.NativeJoinSelectivity(2));
}

TEST_F(OptimizerTest, NativeEstimatePointMatchesEstimator) {
  const Query q = MakeStarQuery(2);
  CardinalityEstimator est(catalog_.get(), &q);
  const EssPoint qe = est.NativeEstimatePoint();
  ASSERT_EQ(qe.size(), 2u);
  EXPECT_DOUBLE_EQ(qe[0], est.NativeJoinSelectivity(0));
  EXPECT_DOUBLE_EQ(qe[1], est.NativeJoinSelectivity(1));
}

// --- Brute-force plan enumeration for DP verification -------------------

/// Enumerates every physical plan of `query` (bushy trees over connected
/// subsets, HJ/NLJ both operand orders, plus index nested-loops where an
/// index exists) and calls `fn` on each root.
void EnumeratePlans(const Query& query, const Catalog& catalog,
                    const std::function<void(std::unique_ptr<PlanNode>)>& fn) {
  const int n = query.num_tables();
  std::vector<std::vector<int>> table_filters(static_cast<size_t>(n));
  for (int f = 0; f < static_cast<int>(query.filters().size()); ++f) {
    table_filters[static_cast<size_t>(
        query.TableIndex(query.filters()[static_cast<size_t>(f)].table))]
        .push_back(f);
  }

  // Recursively produce every plan for a table mask.
  std::function<std::vector<std::unique_ptr<PlanNode>>(uint64_t)> gen =
      [&](uint64_t mask) {
        std::vector<std::unique_ptr<PlanNode>> out;
        if ((mask & (mask - 1)) == 0) {
          int t = 0;
          while (!(mask & (uint64_t{1} << t))) ++t;
          auto scan = std::make_unique<PlanNode>();
          scan->op = PlanOp::kSeqScan;
          scan->table_idx = t;
          scan->filter_indices = table_filters[static_cast<size_t>(t)];
          out.push_back(std::move(scan));
          return out;
        }
        for (uint64_t s1 = (mask - 1) & mask; s1 != 0; s1 = (s1 - 1) & mask) {
          const uint64_t s2 = mask ^ s1;
          if (s1 > s2) continue;
          std::vector<int> cross;
          for (int j = 0; j < query.num_joins(); ++j) {
            const uint64_t jm = query.JoinTableMask(j);
            if ((jm & mask) != jm) continue;
            if ((jm & s1) && (jm & s2)) cross.push_back(j);
          }
          if (cross.empty()) continue;
          // Index nested-loop applicability per side: single table,
          // exactly one crossing edge, index on its column of that edge.
          auto inlj_ok = [&](uint64_t side) {
            if (cross.size() != 1 || (side & (side - 1)) != 0) return false;
            const JoinPredicate& jp =
                query.joins()[static_cast<size_t>(cross[0])];
            int t = 0;
            while (!(side & (uint64_t{1} << t))) ++t;
            const std::string& tname = query.tables()[static_cast<size_t>(t)];
            if (jp.left_table == tname) {
              return catalog.FindIndex(tname, jp.left_column) != nullptr;
            }
            if (jp.right_table == tname) {
              return catalog.FindIndex(tname, jp.right_column) != nullptr;
            }
            return false;
          };
          auto lefts = gen(s1);
          auto rights = gen(s2);
          for (const auto& l : lefts) {
            for (const auto& r : rights) {
              for (PlanOp op : {PlanOp::kHashJoin, PlanOp::kNLJoin,
                                PlanOp::kSortMergeJoin}) {
                for (int order = 0; order < 2; ++order) {
                  auto node = std::make_unique<PlanNode>();
                  node->op = op;
                  node->join_indices = cross;
                  node->left = order == 0 ? l->Clone() : r->Clone();
                  node->right = order == 0 ? r->Clone() : l->Clone();
                  out.push_back(std::move(node));
                }
              }
              for (int order = 0; order < 2; ++order) {
                const uint64_t inner = order == 0 ? s2 : s1;
                if (!inlj_ok(inner)) continue;
                auto node = std::make_unique<PlanNode>();
                node->op = PlanOp::kIndexNLJoin;
                node->join_indices = cross;
                node->left = order == 0 ? l->Clone() : r->Clone();
                node->right = order == 0 ? r->Clone() : l->Clone();
                out.push_back(std::move(node));
              }
            }
          }
        }
        return out;
      };

  const uint64_t full = (uint64_t{1} << n) - 1;
  for (auto& plan : gen(full)) fn(std::move(plan));
}

TEST_F(OptimizerTest, DpMatchesBruteForceStar) {
  const Query q = MakeStarQuery(3);
  Optimizer opt(catalog_.get(), &q);
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    EssPoint inj(3);
    for (double& v : inj) v = std::pow(10.0, rng.UniformDouble(-4.0, 0.0));
    const std::unique_ptr<Plan> dp_plan = opt.Optimize(inj);
    const double dp_cost = opt.PlanCost(*dp_plan, inj);
    double best = std::numeric_limits<double>::infinity();
    EnumeratePlans(q, *catalog_, [&](std::unique_ptr<PlanNode> root) {
      Plan plan(&q, std::move(root));
      best = std::min(best, opt.PlanCost(plan, inj));
    });
    EXPECT_NEAR(dp_cost, best, best * 1e-9) << "trial " << trial;
  }
}

TEST_F(OptimizerTest, DpMatchesBruteForceBranch) {
  const Query q = MakeBranchQuery(3);
  Optimizer opt(catalog_.get(), &q);
  Rng rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    EssPoint inj(3);
    for (double& v : inj) v = std::pow(10.0, rng.UniformDouble(-4.0, 0.0));
    const std::unique_ptr<Plan> dp_plan = opt.Optimize(inj);
    const double dp_cost = opt.PlanCost(*dp_plan, inj);
    double best = std::numeric_limits<double>::infinity();
    EnumeratePlans(q, *catalog_, [&](std::unique_ptr<PlanNode> root) {
      Plan plan(&q, std::move(root));
      best = std::min(best, opt.PlanCost(plan, inj));
    });
    EXPECT_NEAR(dp_cost, best, best * 1e-9) << "trial " << trial;
  }
}

TEST_F(OptimizerTest, ConstrainedSpillMatchesBruteForce) {
  const Query q = MakeBranchQuery(3);
  Optimizer opt(catalog_.get(), &q);
  const std::vector<bool> unlearned = {true, true, true};
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    EssPoint inj(3);
    for (double& v : inj) v = std::pow(10.0, rng.UniformDouble(-3.0, 0.0));
    for (int dim = 0; dim < 3; ++dim) {
      const std::unique_ptr<Plan> got =
          opt.OptimizeConstrainedSpill(inj, dim, unlearned);
      double best = std::numeric_limits<double>::infinity();
      EnumeratePlans(q, *catalog_, [&](std::unique_ptr<PlanNode> root) {
        Plan plan(&q, std::move(root));
        if (plan.SpillDimension(unlearned) == dim) {
          best = std::min(best, opt.PlanCost(plan, inj));
        }
      });
      if (got == nullptr) {
        EXPECT_TRUE(std::isinf(best));
        continue;
      }
      EXPECT_EQ(got->SpillDimension(unlearned), dim);
      EXPECT_NEAR(opt.PlanCost(*got, inj), best, best * 1e-9)
          << "dim " << dim << " trial " << trial;
    }
  }
}

TEST_F(OptimizerTest, ConstrainedSpillRespectsLearnedDims) {
  const Query q = MakeStarQuery(3);
  Optimizer opt(catalog_.get(), &q);
  const EssPoint inj = {0.01, 0.01, 0.01};
  // With dim 0 learnt, a returned plan must spill on the requested dim.
  const std::vector<bool> unlearned = {false, true, true};
  for (int dim = 1; dim <= 2; ++dim) {
    const auto plan = opt.OptimizeConstrainedSpill(inj, dim, unlearned);
    ASSERT_NE(plan, nullptr);
    EXPECT_EQ(plan->SpillDimension(unlearned), dim);
  }
}

TEST_F(OptimizerTest, CostPlanConsistentWithDp) {
  // The plan returned by Optimize must cost exactly what the DP claims,
  // i.e. re-costing the reconstruction gives the same optimum for a
  // different location ordering of the same plan.
  const Query q = MakeStarQuery(2);
  Optimizer opt(catalog_.get(), &q);
  const EssPoint a = {1e-3, 1e-2};
  const std::unique_ptr<Plan> plan = opt.Optimize(a);
  const PlanCosting costing = opt.CostPlan(*plan, a);
  EXPECT_GT(costing.total_cost(), 0.0);
  EXPECT_EQ(costing.rows.size(), static_cast<size_t>(plan->num_nodes()));
  // Root cumulative cost equals the total.
  EXPECT_DOUBLE_EQ(costing.cost[0], costing.total_cost());
  // Subtree costs are no larger than the total.
  for (double c : costing.cost) EXPECT_LE(c, costing.total_cost() * (1 + 1e-12));
}

TEST_F(OptimizerTest, TopKTopEntryMatchesOptimizeAndCostsAscend) {
  const Query q = MakeStarQuery(3);
  Optimizer opt(catalog_.get(), &q);
  for (const EssPoint& inj :
       {EssPoint{1e-3, 1e-2, 0.1}, EssPoint{0.5, 1e-4, 1e-2}}) {
    const std::unique_ptr<Plan> best = opt.Optimize(inj);
    const std::vector<std::unique_ptr<Plan>> top = opt.OptimizeTopK(inj, 4);
    ASSERT_FALSE(top.empty());
    EXPECT_EQ(top[0]->signature(), best->signature());
    // Costs nondecreasing, plans structurally distinct.
    double prev = -1.0;
    for (size_t i = 0; i < top.size(); ++i) {
      const double c = opt.PlanCost(*top[i], inj);
      EXPECT_GE(c, prev);
      prev = c;
      for (size_t j = i + 1; j < top.size(); ++j) {
        EXPECT_NE(top[i]->signature(), top[j]->signature());
      }
    }
  }
}

TEST_F(OptimizerTest, DpMatchesBruteForceMixedEpps) {
  // Join + filter epps together: exercises the scan-leaf states of the
  // constrained DP and the injected filter selectivities.
  const Query q = testing_util::MakeMixedEppQuery();
  Optimizer opt(catalog_.get(), &q);
  Rng rng(321);
  for (int trial = 0; trial < 8; ++trial) {
    EssPoint inj(3);
    for (double& v : inj) v = std::pow(10.0, rng.UniformDouble(-3.0, 0.0));
    const std::unique_ptr<Plan> dp_plan = opt.Optimize(inj);
    const double dp_cost = opt.PlanCost(*dp_plan, inj);
    double best = std::numeric_limits<double>::infinity();
    EnumeratePlans(q, *catalog_, [&](std::unique_ptr<PlanNode> root) {
      Plan plan(&q, std::move(root));
      best = std::min(best, opt.PlanCost(plan, inj));
    });
    EXPECT_NEAR(dp_cost, best, best * 1e-9) << "trial " << trial;
  }
}

TEST_F(OptimizerTest, ConstrainedSpillOnFilterDim) {
  const Query q = testing_util::MakeMixedEppQuery();
  Optimizer opt(catalog_.get(), &q);
  const EssPoint inj = {0.01, 0.01, 0.3};
  const std::vector<bool> unlearned = {true, true, true};
  // Dimension 2 is the d1 filter: a plan spilling on it must have the d1
  // scan as the first unlearned epp in execution order — brute-force the
  // cheapest such plan and compare.
  const auto got = opt.OptimizeConstrainedSpill(inj, 2, unlearned);
  double best = std::numeric_limits<double>::infinity();
  EnumeratePlans(q, *catalog_, [&](std::unique_ptr<PlanNode> root) {
    Plan plan(&q, std::move(root));
    if (plan.SpillDimension(unlearned) == 2) {
      best = std::min(best, opt.PlanCost(plan, inj));
    }
  });
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->SpillDimension(unlearned), 2);
  EXPECT_NEAR(opt.PlanCost(*got, inj), best, best * 1e-9);
}

// --- PCM property (parameterized sweep) ---------------------------------

struct PcmCase {
  int num_epps;
  uint64_t seed;
};

class PcmPropertyTest : public ::testing::TestWithParam<PcmCase> {};

TEST_P(PcmPropertyTest, CostMonotoneInSelectivities) {
  auto catalog = MakeTinyCatalog();
  const Query q = MakeStarQuery(GetParam().num_epps);
  Optimizer opt(catalog.get(), &q);
  Rng rng(GetParam().seed);
  const int D = q.num_epps();
  for (int trial = 0; trial < 40; ++trial) {
    // Random location and a random dominated location.
    EssPoint hi(static_cast<size_t>(D)), lo(static_cast<size_t>(D));
    for (int d = 0; d < D; ++d) {
      hi[static_cast<size_t>(d)] = std::pow(10.0, rng.UniformDouble(-3.0, 0.0));
      lo[static_cast<size_t>(d)] =
          hi[static_cast<size_t>(d)] * rng.UniformDouble(0.05, 0.8);
    }
    // A plan optimal somewhere in between exercises realistic shapes.
    const std::unique_ptr<Plan> plan = opt.Optimize(lo);
    EXPECT_GT(opt.PlanCost(*plan, hi), opt.PlanCost(*plan, lo))
        << "PCM violated at trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PcmPropertyTest,
                         ::testing::Values(PcmCase{1, 1}, PcmCase{2, 2},
                                           PcmCase{2, 77}, PcmCase{3, 3},
                                           PcmCase{3, 1234}),
                         [](const ::testing::TestParamInfo<PcmCase>& info) {
                           return "D" + std::to_string(info.param.num_epps) +
                                  "_s" + std::to_string(info.param.seed);
                         });

TEST_F(OptimizerTest, CommercialFlavourDiffers) {
  const Query q = MakeStarQuery(2);
  Optimizer pg(catalog_.get(), &q, CostModel::PostgresFlavour());
  Optimizer com(catalog_.get(), &q, CostModel::CommercialFlavour());
  const EssPoint inj = {0.01, 0.01};
  const auto p1 = pg.Optimize(inj);
  // Costs must differ across flavours even if the plan shape coincides.
  EXPECT_NE(pg.PlanCost(*p1, inj), com.PlanCost(*p1, inj));
}

// --- PlanSetCoster: batched costing, bitwise equal to PlanCost ----------

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// costs[p * points.size() + i] = the coster's cost of plan p at points[i].
std::vector<double> CostMatrix(const PlanSetCoster& coster,
                               const std::vector<EssPoint>& points,
                               ThreadPool* pool) {
  const size_t n = points.size();
  std::vector<double> costs(static_cast<size_t>(coster.num_plans()) * n, -1.0);
  coster.ForEachBlock(
      static_cast<int64_t>(n),
      [&](int64_t i) { return points[static_cast<size_t>(i)]; }, pool,
      [&](int64_t begin, int64_t end, const double* const* block) {
        for (size_t p = 0; p < static_cast<size_t>(coster.num_plans()); ++p) {
          for (int64_t i = begin; i < end; ++i) {
            costs[p * n + static_cast<size_t>(i)] = block[p][i - begin];
          }
        }
      });
  return costs;
}

/// Number of (plan, point) pairs where the coster's bits differ from
/// PlanCost's.
int64_t CountMismatches(const Optimizer& opt,
                        const std::vector<const Plan*>& plans,
                        const std::vector<EssPoint>& points,
                        const std::vector<double>& costs) {
  int64_t mismatches = 0;
  for (size_t p = 0; p < plans.size(); ++p) {
    for (size_t i = 0; i < points.size(); ++i) {
      if (Bits(costs[p * points.size() + i]) !=
          Bits(opt.PlanCost(*plans[p], points[i]))) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

std::vector<EssPoint> RandomPoints(int dims, int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<EssPoint> points(static_cast<size_t>(n),
                               EssPoint(static_cast<size_t>(dims)));
  for (EssPoint& q : points) {
    for (double& v : q) v = std::pow(10.0, rng.UniformDouble(-5.0, 0.0));
  }
  return points;
}

/// Every node's fast subtree cost against CostPlan's per-node cost.
void ExpectSubtreeCostsMatch(const Optimizer& opt, const Plan& plan,
                             const EssPoint& q) {
  const PlanCosting costing = opt.CostPlan(plan, q);
  for (int id = 0; id < plan.num_nodes(); ++id) {
    ASSERT_EQ(Bits(opt.SubtreeCost(plan.node(id), q)),
              Bits(costing.cost[static_cast<size_t>(id)]))
        << "node " << id << " of " << plan.signature();
  }
}

TEST_F(OptimizerTest, PlanSetCosterMatchesPlanCostMixedEpps) {
  // Filter and join epps, all join operators the tiny catalog admits.
  const Query q = MakeMixedEppQuery();
  Optimizer opt(catalog_.get(), &q);
  const std::vector<std::unique_ptr<Plan>> owned =
      opt.OptimizeTopK({1e-3, 0.1, 0.5}, 40);
  std::vector<const Plan*> plans;
  for (const auto& p : owned) plans.push_back(p.get());
  // 150 points: two full blocks and a partial one.
  const std::vector<EssPoint> points = RandomPoints(q.num_epps(), 150, 7);
  const PlanSetCoster coster(opt, plans);
  EXPECT_EQ(coster.num_plans(), static_cast<int>(plans.size()));
  EXPECT_EQ(CountMismatches(opt, plans, points,
                            CostMatrix(coster, points, nullptr)),
            0);
  for (const EssPoint& point : points) {
    for (const Plan* plan : plans) ExpectSubtreeCostsMatch(opt, *plan, point);
  }
}

TEST_F(OptimizerTest, PlanSetCosterHandlesEmptyInputs) {
  const Query q = MakeStarQuery(2);
  Optimizer opt(catalog_.get(), &q);
  const std::unique_ptr<Plan> plan = opt.Optimize({0.1, 0.1});
  const PlanSetCoster coster(opt, {plan.get()});
  int calls = 0;
  coster.ForEachBlock(
      0, [](int64_t) { return EssPoint{}; }, nullptr,
      [&](int64_t, int64_t, const double* const*) { ++calls; });
  EXPECT_EQ(calls, 0);
  const PlanSetCoster none(opt, {});
  EXPECT_EQ(none.num_nodes(), 0);
  EXPECT_TRUE(CostMatrix(none, RandomPoints(2, 5, 1), nullptr).empty());
}

class PlanSetCosterSuiteTest : public ::testing::TestWithParam<std::string> {
 protected:
  const Ess& ess() {
    const Query probe = MakeSuiteQuery(GetParam());
    Ess::Config config;
    config.points_per_dim = probe.num_epps() == 3   ? 14
                            : probe.num_epps() == 4 ? 8
                                                    : 6;
    entry_ = *ContextCache::Default().Get(GetParam(), config);
    return *entry_->ess;
  }
  std::shared_ptr<const ContextCache::Entry> entry_;
};

TEST_P(PlanSetCosterSuiteTest, BitwiseEqualsPlanCostOnEveryContour) {
  // Every (POSP plan, frontier location) pair of every contour — exactly
  // the pairs PlanBouquet's coverage fill costs.
  const Ess& e = ess();
  ThreadPool pool(3);
  int64_t pairs = 0;
  for (int i = 0; i < e.num_contours(); ++i) {
    const std::vector<const Plan*> posp = e.ContourPlans(i);
    std::vector<EssPoint> points;
    for (int64_t lin : e.FrontierLocations(i)) {
      points.push_back(e.SelAt(e.FromLinear(lin)));
    }
    const PlanSetCoster coster(e.optimizer(), posp);
    EXPECT_EQ(CountMismatches(e.optimizer(), posp, points,
                              CostMatrix(coster, points, &pool)),
              0)
        << GetParam() << " contour " << i;
    pairs += static_cast<int64_t>(posp.size() * points.size());
  }
  EXPECT_GT(pairs, 0);
}

TEST_P(PlanSetCosterSuiteTest, SerialAndPooledAgree) {
  const Ess& e = ess();
  const std::vector<const Plan*>& plans = e.pool().plans();
  std::vector<EssPoint> points;
  for (int64_t lin = 0; lin < e.num_locations(); ++lin) {
    points.push_back(e.SelAt(e.FromLinear(lin)));
  }
  const PlanSetCoster coster(e.optimizer(), plans);
  // Shared subtrees are costed once.
  int tree_nodes = 0;
  for (const Plan* p : plans) tree_nodes += p->num_nodes();
  EXPECT_LT(coster.num_nodes(), tree_nodes);
  // Every root keeps its slot to the end; interior slots are reused.
  EXPECT_GE(coster.num_slots(), coster.num_plans());
  EXPECT_LT(coster.num_slots(), coster.num_nodes());
  const std::vector<double> serial = CostMatrix(coster, points, nullptr);
  for (int threads : {2, 3}) {
    ThreadPool pool(threads);
    const std::vector<double> pooled = CostMatrix(coster, points, &pool);
    ASSERT_EQ(serial.size(), pooled.size());
    int64_t differ = 0;
    for (size_t k = 0; k < serial.size(); ++k) {
      if (Bits(serial[k]) != Bits(pooled[k])) ++differ;
    }
    EXPECT_EQ(differ, 0) << threads << " threads";
  }
}

TEST_P(PlanSetCosterSuiteTest, SubtreeCostMatchesCostPlan) {
  const Ess& e = ess();
  for (const EssPoint& q : RandomPoints(e.dims(), 12, 91)) {
    for (const Plan* plan : e.pool().plans()) {
      ExpectSubtreeCostsMatch(e.optimizer(), *plan, q);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Q91, PlanSetCosterSuiteTest,
                         ::testing::Values("3D_Q91", "4D_Q91", "5D_Q91"));

}  // namespace
}  // namespace robustqp
