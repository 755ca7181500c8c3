// Property tests for the discovery algorithms: the paper's theorems and
// lemmas checked exhaustively over small ESS instances.
//
//  * Oracle semantics = Lemma 3.1 (learn exactly, or certify a half-space)
//  * PlanBouquet: completion everywhere, MSO <= 4 (1+lambda) rho
//  * SpillBound: completion everywhere, MSO <= D^2 + 3D (Theorem 4.5),
//    2D bound of 10 (Theorem 4.2), <= 2 plans per contour + one contour
//    with 3 in 2D (Lemma 4.1), repeat-execution bound (Lemma 4.4)
//  * AlignedBound: completion everywhere, MSO <= D^2 + 3D and empirically
//    <= SpillBound's, at most |parts| <= D executions per contour visit

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <queue>
#include <set>

#include "core/alignedbound.h"
#include "core/oracle.h"
#include "core/planbouquet.h"
#include "core/spillbound.h"
#include "harness/evaluator.h"
#include "server/context_cache.h"
#include "test_util.h"

namespace robustqp {
namespace {

using testing_util::MakeBranchQuery;
using testing_util::MakeStarQuery;
using testing_util::MakeTinyCatalog;

struct EssBundle {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<Query> query;
  std::unique_ptr<Ess> ess;
};

EssBundle MakeEss(int num_epps, bool branch, int points) {
  EssBundle b;
  b.catalog = MakeTinyCatalog();
  b.query = std::make_unique<Query>(branch ? MakeBranchQuery(num_epps)
                                           : MakeStarQuery(num_epps));
  Ess::Config config;
  config.points_per_dim = points;
  config.min_sel = 1e-4;
  b.ess = Ess::Build(*b.catalog, *b.query, config);
  return b;
}

// --- Oracle semantics ----------------------------------------------------

TEST(SimulatedOracleTest, FullExecutionSemantics) {
  EssBundle b = MakeEss(2, false, 12);
  const GridLoc qa = {6, 6};
  SimulatedOracle oracle(b.ess.get(), qa);
  const Plan* plan = b.ess->OptimalPlan(qa);
  const double cost = b.ess->OptimalCost(qa);

  const ExecOutcome done = oracle.ExecuteFull(*plan, cost * 1.01);
  EXPECT_TRUE(done.completed);
  EXPECT_NEAR(done.cost_charged, cost, cost * 1e-9);

  const ExecOutcome aborted = oracle.ExecuteFull(*plan, cost * 0.5);
  EXPECT_FALSE(aborted.completed);
  EXPECT_DOUBLE_EQ(aborted.cost_charged, cost * 0.5);
}

TEST(SimulatedOracleTest, SpillLemma31Semantics) {
  // Lemma 3.1: spilling plan P with budget Cost(P, q) either learns the
  // exact selectivity of the spilled epp or certifies q_a.j > q.j.
  EssBundle b = MakeEss(2, false, 12);
  const std::vector<double> no_learned = {-1.0, -1.0};
  const std::vector<bool> unlearned = {true, true};
  for (int qa0 = 0; qa0 < 12; qa0 += 3) {
    for (int qa1 = 0; qa1 < 12; qa1 += 3) {
      const GridLoc qa = {qa0, qa1};
      SimulatedOracle oracle(b.ess.get(), qa);
      for (int q0 = 0; q0 < 12; q0 += 4) {
        for (int q1 = 0; q1 < 12; q1 += 4) {
          const GridLoc loc = {q0, q1};
          const Plan* plan = b.ess->OptimalPlan(loc);
          const int dim = plan->SpillDimension(unlearned);
          ASSERT_GE(dim, 0);
          const double budget = b.ess->OptimalCost(loc);
          const ExecOutcome out =
              oracle.ExecuteSpill(*plan, dim, budget, no_learned);
          if (qa[static_cast<size_t>(dim)] <= loc[static_cast<size_t>(dim)]) {
            EXPECT_TRUE(out.completed)
                << "must learn exactly when qa.j <= q.j";
            EXPECT_DOUBLE_EQ(
                out.learned_sel,
                b.ess->axis().value(qa[static_cast<size_t>(dim)]));
          } else if (!out.completed) {
            // Certified half-space must be sound and cover loc's coord.
            EXPECT_GE(out.learned_floor, loc[static_cast<size_t>(dim)]);
            EXPECT_LT(out.learned_floor, qa[static_cast<size_t>(dim)]);
            EXPECT_DOUBLE_EQ(out.cost_charged, budget);
          }
        }
      }
    }
  }
}

TEST(SimulatedOracleTest, SpillChargesAtMostBudget) {
  EssBundle b = MakeEss(2, false, 12);
  SimulatedOracle oracle(b.ess.get(), {11, 11});
  const std::vector<double> no_learned = {-1.0, -1.0};
  const Plan* plan = b.ess->OptimalPlan(GridLoc{3, 3});
  const double budget = b.ess->OptimalCost(GridLoc{3, 3});
  const ExecOutcome out = oracle.ExecuteSpill(
      *plan, plan->SpillDimension({true, true}), budget, no_learned);
  EXPECT_LE(out.cost_charged, budget * (1 + 1e-9));
}

// --- PlanBouquet ---------------------------------------------------------

class PlanBouquetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bundle_ = new EssBundle(MakeEss(2, false, 16));
  }
  static EssBundle* bundle_;
};
EssBundle* PlanBouquetTest::bundle_ = nullptr;

TEST_F(PlanBouquetTest, CompletesEverywhereWithinGuarantee) {
  PlanBouquet pb(bundle_->ess.get(), {0.2, true});
  const SuboptimalityStats stats = Evaluate(pb, *bundle_->ess);
  EXPECT_LE(stats.mso, pb.MsoGuarantee() * (1 + 1e-6));
  EXPECT_GE(stats.mso, 1.0);
  EXPECT_GE(stats.aso, 1.0);
  EXPECT_LE(stats.aso, stats.mso);
}

TEST_F(PlanBouquetTest, AnorexicReductionShrinksRho) {
  PlanBouquet full(bundle_->ess.get(), {0.0, false});
  PlanBouquet reduced(bundle_->ess.get(), {0.2, true});
  EXPECT_LE(reduced.rho(), full.rho());
  EXPECT_EQ(full.rho(), full.rho_original());
  EXPECT_GE(reduced.rho(), 1);
}

TEST_F(PlanBouquetTest, UnreducedAlsoCompletesEverywhere) {
  PlanBouquet pb(bundle_->ess.get(), {0.0, false});
  const SuboptimalityStats stats = Evaluate(pb, *bundle_->ess);
  EXPECT_LE(stats.mso, pb.MsoGuarantee() * (1 + 1e-6));
}

TEST_F(PlanBouquetTest, BouquetSizeSane) {
  PlanBouquet pb(bundle_->ess.get(), {0.2, true});
  EXPECT_GE(pb.BouquetSize(), 1);
  EXPECT_LE(pb.BouquetSize(), bundle_->ess->pool().size());
}

TEST_F(PlanBouquetTest, StepsAreContourOrdered) {
  PlanBouquet pb(bundle_->ess.get(), {0.2, true});
  SimulatedOracle oracle(bundle_->ess.get(), {12, 9});
  const DiscoveryResult r = pb.Run(&oracle);
  ASSERT_TRUE(r.completed);
  for (size_t i = 1; i < r.steps.size(); ++i) {
    EXPECT_GE(r.steps[i].contour, r.steps[i - 1].contour);
  }
  EXPECT_TRUE(r.steps.back().completed);
}

/// PlanBouquet's contour set built pair by pair: one PlanCost per (POSP
/// plan, frontier location), then the lazy greedy cover over index lists.
/// The oracle for the batched, bitset-based construction.
std::vector<const Plan*> ReferenceContourSet(const Ess& ess, int i,
                                             double lambda) {
  const std::vector<int64_t>& frontier = ess.FrontierLocations(i);
  std::vector<const Plan*> posp = ess.ContourPlans(i);
  if (posp.size() <= 1) return posp;
  const double budget = ess.ContourCost(i) * (1.0 + lambda);
  std::vector<std::vector<int>> covers(posp.size());
  for (size_t p = 0; p < posp.size(); ++p) {
    for (size_t l = 0; l < frontier.size(); ++l) {
      const EssPoint q = ess.SelAt(ess.FromLinear(frontier[l]));
      if (ess.optimizer().PlanCost(*posp[p], q) <= budget * (1.0 + 1e-12)) {
        covers[p].push_back(static_cast<int>(l));
      }
    }
  }
  std::vector<char> covered(frontier.size(), 0);
  size_t remaining = frontier.size();
  std::priority_queue<std::pair<int, size_t>> pq;
  for (size_t p = 0; p < posp.size(); ++p) {
    pq.push({static_cast<int>(covers[p].size()), p});
  }
  std::vector<const Plan*> chosen;
  while (remaining > 0) {
    auto [stale_gain, p] = pq.top();
    pq.pop();
    int gain = 0;
    for (int l : covers[p]) gain += covered[static_cast<size_t>(l)] ? 0 : 1;
    if (!pq.empty() && gain < pq.top().first) {
      pq.push({gain, p});
      continue;
    }
    chosen.push_back(posp[p]);
    for (int l : covers[p]) {
      if (!covered[static_cast<size_t>(l)]) {
        covered[static_cast<size_t>(l)] = 1;
        --remaining;
      }
    }
  }
  return chosen;
}

void ExpectContourSetsMatchReference(const Ess& ess, const std::string& what) {
  for (double lambda : {0.2, 0.5}) {
    const PlanBouquet pb(&ess, {lambda, true});
    int rho = 0;
    for (int i = 0; i < ess.num_contours(); ++i) {
      const std::vector<const Plan*> ref = ReferenceContourSet(ess, i, lambda);
      EXPECT_EQ(pb.ContourSet(i), ref)
          << what << " lambda " << lambda << " contour " << i;
      rho = std::max(rho, static_cast<int>(ref.size()));
    }
    EXPECT_EQ(pb.rho(), rho) << what;
  }
}

TEST_F(PlanBouquetTest, ContourSetsMatchPerPairReference) {
  ExpectContourSetsMatchReference(*bundle_->ess, "star 2D");
  EssBundle branch = MakeEss(3, true, 10);
  ExpectContourSetsMatchReference(*branch.ess, "branch 3D");
}

TEST(PlanBouquetSuiteTest, ContourSetsMatchPerPairReference) {
  for (const char* id : {"3D_Q91", "4D_Q91", "5D_Q91"}) {
    for (const CostModel& cm :
         {CostModel::PostgresFlavour(), CostModel::CommercialFlavour()}) {
      Ess::Config config;
      config.points_per_dim = 6;
      config.cost_model = cm;
      const auto entry = *ContextCache::Default().Get(id, config);
      ExpectContourSetsMatchReference(*entry->ess, id);
    }
  }
}

// --- SpillBound ----------------------------------------------------------

struct SbCase {
  int num_epps;
  bool branch;
  int points;
};

class SpillBoundPropertyTest : public ::testing::TestWithParam<SbCase> {};

TEST_P(SpillBoundPropertyTest, CompletesEverywhereWithinGuarantee) {
  EssBundle b = MakeEss(GetParam().num_epps, GetParam().branch,
                        GetParam().points);
  SpillBound sb(b.ess.get());
  const SuboptimalityStats stats = Evaluate(sb, *b.ess);
  EXPECT_LE(stats.mso,
            SpillBound::MsoGuarantee(GetParam().num_epps) * (1 + 1e-6))
      << "worst at " << stats.worst_location;
  EXPECT_GE(stats.mso, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpillBoundPropertyTest,
    ::testing::Values(SbCase{1, false, 24}, SbCase{2, false, 16},
                      SbCase{2, true, 16}, SbCase{3, false, 8},
                      SbCase{3, true, 8}),
    [](const ::testing::TestParamInfo<SbCase>& info) {
      return std::string(info.param.branch ? "branch" : "star") +
             std::to_string(info.param.num_epps) + "_p" +
             std::to_string(info.param.points);
    });

class SpillBoundTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bundle_ = new EssBundle(MakeEss(2, false, 16));
  }
  static EssBundle* bundle_;
};
EssBundle* SpillBoundTest::bundle_ = nullptr;

TEST_F(SpillBoundTest, TwoDimensionalBoundOfTen) {
  SpillBound sb(bundle_->ess.get());
  const SuboptimalityStats stats = Evaluate(sb, *bundle_->ess);
  EXPECT_LE(stats.mso, 10.0 * (1 + 1e-6));  // Theorem 4.2
}

TEST_F(SpillBoundTest, Lemma41ExecutionsPerContour2D) {
  // 2D: at most two plans per contour, except at most one contour with
  // three (Lemma 4.1).
  SpillBound sb(bundle_->ess.get());
  for (int64_t lin = 0; lin < bundle_->ess->num_locations(); lin += 3) {
    SimulatedOracle oracle(bundle_->ess.get(), bundle_->ess->FromLinear(lin));
    const DiscoveryResult r = sb.Run(&oracle);
    ASSERT_TRUE(r.completed);
    std::map<int, int> per_contour;
    for (const auto& s : r.steps) ++per_contour[s.contour];
    int three_count = 0;
    for (const auto& [contour, n] : per_contour) {
      EXPECT_LE(n, 3);
      if (n == 3) ++three_count;
    }
    EXPECT_LE(three_count, 1) << "at qa=" << lin;
  }
}

TEST_F(SpillBoundTest, LearnedSelectivitiesAreExact) {
  SpillBound sb(bundle_->ess.get());
  const GridLoc qa = {10, 5};
  SimulatedOracle oracle(bundle_->ess.get(), qa);
  const DiscoveryResult r = sb.Run(&oracle);
  ASSERT_TRUE(r.completed);
  for (const auto& s : r.steps) {
    if (s.spill_dim >= 0 && s.completed) {
      EXPECT_DOUBLE_EQ(
          s.learned_sel,
          bundle_->ess->axis().value(qa[static_cast<size_t>(s.spill_dim)]));
    }
  }
}

TEST_F(SpillBoundTest, ContoursAreVisitedInOrder) {
  SpillBound sb(bundle_->ess.get());
  SimulatedOracle oracle(bundle_->ess.get(), {14, 14});
  const DiscoveryResult r = sb.Run(&oracle);
  ASSERT_TRUE(r.completed);
  for (size_t i = 1; i < r.steps.size(); ++i) {
    EXPECT_GE(r.steps[i].contour, r.steps[i - 1].contour);
  }
}

TEST_F(SpillBoundTest, RepeatExecutionBound) {
  // Lemma 4.4: fresh executions per contour <= D; repeats across the whole
  // run <= D (D - 1) / 2.
  EssBundle b = MakeEss(3, false, 8);
  SpillBound sb(b.ess.get());
  const int D = 3;
  for (int64_t lin = 0; lin < b.ess->num_locations(); lin += 5) {
    SimulatedOracle oracle(b.ess.get(), b.ess->FromLinear(lin));
    const DiscoveryResult r = sb.Run(&oracle);
    ASSERT_TRUE(r.completed);
    std::map<std::pair<int, int>, int> spill_execs;  // (contour, dim) -> n
    std::map<int, std::set<int>> fresh;              // contour -> dims
    for (const auto& s : r.steps) {
      if (s.spill_dim < 0) continue;
      ++spill_execs[{s.contour, s.spill_dim}];
      fresh[s.contour].insert(s.spill_dim);
    }
    int repeats = 0;
    for (const auto& [key, n] : spill_execs) repeats += n - 1;
    EXPECT_LE(repeats, D * (D - 1) / 2) << "qa=" << lin;
    for (const auto& [contour, dims] : fresh) {
      EXPECT_LE(static_cast<int>(dims.size()), D);
    }
  }
}

TEST_F(SpillBoundTest, OneDimensionalQueryIsPlanBouquet) {
  EssBundle b = MakeEss(1, false, 24);
  SpillBound sb(b.ess.get());
  const SuboptimalityStats stats = Evaluate(sb, *b.ess);
  // 1D PlanBouquet guarantee: 4.
  EXPECT_LE(stats.mso, 4.0 * (1 + 1e-6));
  // And no spill executions at all.
  SimulatedOracle oracle(b.ess.get(), {20});
  const DiscoveryResult r = sb.Run(&oracle);
  for (const auto& s : r.steps) EXPECT_EQ(s.spill_dim, -1);
}

// --- AlignedBound --------------------------------------------------------

class AlignedBoundPropertyTest : public ::testing::TestWithParam<SbCase> {};

TEST_P(AlignedBoundPropertyTest, CompletesEverywhereWithinQuadraticBound) {
  EssBundle b = MakeEss(GetParam().num_epps, GetParam().branch,
                        GetParam().points);
  AlignedBound ab(b.ess.get());
  const SuboptimalityStats stats = Evaluate(ab, *b.ess);
  const auto [lower, upper] = AlignedBound::MsoGuaranteeRange(GetParam().num_epps);
  EXPECT_LE(stats.mso, upper * (1 + 1e-6));
  EXPECT_GE(stats.mso, 1.0);
  (void)lower;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AlignedBoundPropertyTest,
    ::testing::Values(SbCase{2, false, 16}, SbCase{2, true, 16},
                      SbCase{3, false, 8}, SbCase{3, true, 8}),
    [](const ::testing::TestParamInfo<SbCase>& info) {
      return std::string(info.param.branch ? "branch" : "star") +
             std::to_string(info.param.num_epps) + "_p" +
             std::to_string(info.param.points);
    });

TEST(AlignedBoundTest, AtMostDExecutionsPerContourVisit) {
  EssBundle b = MakeEss(3, false, 8);
  AlignedBound ab(b.ess.get());
  double max_penalty = 0.0;
  for (int64_t lin = 0; lin < b.ess->num_locations(); lin += 7) {
    SimulatedOracle oracle(b.ess.get(), b.ess->FromLinear(lin));
    const DiscoveryResult r = ab.Run(&oracle);
    ASSERT_TRUE(r.completed);
    max_penalty = std::max(max_penalty, r.max_replacement_penalty);
  }
  EXPECT_GE(max_penalty, 1.0);
}

TEST(AlignedBoundTest, NoWorseThanSpillBoundOnAverage) {
  EssBundle b = MakeEss(2, false, 16);
  SpillBound sb(b.ess.get());
  AlignedBound ab(b.ess.get());
  const SuboptimalityStats s_sb = Evaluate(sb, *b.ess);
  const SuboptimalityStats s_ab = Evaluate(ab, *b.ess);
  // AB exploits alignment where it helps; across the ESS it should not be
  // materially worse than SB (allow 10% slack for discrete effects).
  EXPECT_LE(s_ab.aso, s_sb.aso * 1.10);
  EXPECT_LE(s_ab.mso, s_sb.mso * 1.25);
}

// --- Native baseline -----------------------------------------------------

TEST(NativeBaselineTest, WorstCaseDominatesEstimatePointCase) {
  EssBundle b = MakeEss(2, false, 16);
  const SuboptimalityStats worst = EvaluateNativeWorstCase(*b.ess);
  const SuboptimalityStats at_est = EvaluateNativeAtEstimate(*b.ess);
  EXPECT_GE(worst.mso, at_est.mso * (1 - 1e-9));
  EXPECT_GE(worst.mso, 1.0);
}

TEST(NativeBaselineTest, RobustAlgorithmsBeatNativeWorstCase) {
  EssBundle b = MakeEss(2, false, 16);
  SpillBound sb(b.ess.get());
  const SuboptimalityStats s_sb = Evaluate(sb, *b.ess);
  const SuboptimalityStats worst = EvaluateNativeWorstCase(*b.ess);
  // The whole point of the paper: bounded discovery beats worst-case
  // native optimization (which is unbounded as the ESS grows).
  EXPECT_LT(s_sb.mso, worst.mso);
}

TEST(NativeBaselineTest, MatchesPerPairReferenceBitwise) {
  // The batched sweeps against one PlanCost per (plan, location), at one
  // and three threads.
  EssBundle b = MakeEss(3, true, 9);
  const Ess& ess = *b.ess;
  const Optimizer& opt = ess.optimizer();
  const std::unique_ptr<Plan> est_plan =
      opt.Optimize(opt.estimator().NativeEstimatePoint());
  for (int threads : {1, 3}) {
    EvalOptions opts;
    opts.num_threads = threads;
    const SuboptimalityStats worst = EvaluateNativeWorstCase(ess, opts);
    const SuboptimalityStats at_est = EvaluateNativeAtEstimate(ess, opts);
    for (int64_t lin = 0; lin < ess.num_locations(); ++lin) {
      const EssPoint q = ess.SelAt(ess.FromLinear(lin));
      double worst_cost = 0.0;
      for (const Plan* p : ess.pool().plans()) {
        worst_cost = std::max(worst_cost, opt.PlanCost(*p, q));
      }
      const size_t i = static_cast<size_t>(lin);
      ASSERT_EQ(worst.subopt[i],
                std::max(1.0, worst_cost / ess.OptimalCost(lin)))
          << lin;
      ASSERT_EQ(at_est.subopt[i],
                opt.PlanCost(*est_plan, q) / ess.OptimalCost(lin))
          << lin;
    }
  }
}

// --- Evaluator utilities -------------------------------------------------

TEST(EvaluatorTest, HistogramBucketsCountAll) {
  SuboptimalityStats stats;
  stats.subopt = {1.0, 2.5, 5.0, 5.1, 22.0, 97.0, 1000.0};
  const std::vector<int64_t> h = SuboptHistogram(stats, 5.0, 4);
  EXPECT_EQ(h.size(), 4u);
  EXPECT_EQ(h[0], 3);  // 1.0, 2.5, 5.0
  EXPECT_EQ(h[1], 1);  // 5.1
  EXPECT_EQ(h[2], 0);
  EXPECT_EQ(h[3], 3);  // 22, 97, 1000 clamp into the last bucket
  EXPECT_EQ(h[0] + h[1] + h[2] + h[3], 7);
}

TEST(EvaluatorTest, FractionWithin) {
  SuboptimalityStats stats;
  stats.subopt = {1.0, 2.0, 3.0, 10.0};
  EXPECT_DOUBLE_EQ(stats.FractionWithin(5.0), 0.75);
  EXPECT_DOUBLE_EQ(stats.FractionWithin(0.5), 0.0);
  EXPECT_DOUBLE_EQ(stats.FractionWithin(100.0), 1.0);
}

}  // namespace
}  // namespace robustqp
