// Cost-based join-order optimizer (Selinger-style dynamic programming over
// connected table subsets, bushy plans, hash and nested-loop joins with
// both operand orders). Supports:
//
//  * Optimize(q)        — optimal plan with epp selectivities injected at
//                         ESS location q (the repeated-optimizer-call
//                         primitive from which the ESS / POSP / contours
//                         are constructed, Section 2.2);
//  * OptimizeConstrainedSpill(q, j) — least-cost plan whose spill node is
//                         epp j (the engine extension the paper adds for
//                         AlignedBound, Section 6.1);
//  * CostPlan(P, q)     — Cost(P, q) for an arbitrary plan, with per-node
//                         cardinalities and cumulative subtree costs (the
//                         latter drive spill-mode budget semantics).
//
// The constrained search runs the same DP over states (mask, first
// unlearned epp in the subtree's execution order), which is exact because
// the spill dimension composes bottom-up from child states.

#ifndef ROBUSTQP_OPTIMIZER_OPTIMIZER_H_
#define ROBUSTQP_OPTIMIZER_OPTIMIZER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "optimizer/cost_model.h"
#include "optimizer/estimator.h"
#include "plan/plan.h"

namespace robustqp {

/// Per-node cost annotations for one (plan, ESS location) pair. Indexed by
/// PlanNode::id (pre-order; root is id 0).
struct PlanCosting {
  /// Estimated output cardinality of each node.
  std::vector<double> rows;
  /// Cumulative cost of the subtree rooted at each node (children included).
  std::vector<double> cost;

  double total_cost() const { return cost.empty() ? 0.0 : cost[0]; }
};

/// The query optimizer. Immutable after construction; all methods are
/// const and thread-safe.
class Optimizer {
 public:
  Optimizer(const Catalog* catalog, const Query* query,
            CostModel cost_model = CostModel::PostgresFlavour());

  /// The optimal plan at ESS location `q` (one selectivity per epp).
  std::unique_ptr<Plan> Optimize(const EssPoint& q) const;

  /// Optimize behind the optimizer.dp fault site: with an armed
  /// FaultInjector a drawn transient fault returns Unavailable (the ESS
  /// builders retry), a permanent one Internal. Identical to Optimize when
  /// injection is disarmed.
  Result<std::unique_ptr<Plan>> TryOptimize(const EssPoint& q) const;

  /// The least-cost plan at `q` whose spill dimension — the first epp of
  /// its Section 3.1.3 execution order that is flagged true in
  /// `unlearned` — equals `dim`. Returns nullptr if no plan spills on
  /// `dim` (cannot happen for tree queries, where every epp appears in
  /// every plan, unless `unlearned[dim]` is false).
  std::unique_ptr<Plan> OptimizeConstrainedSpill(
      const EssPoint& q, int dim, const std::vector<bool>& unlearned) const;

  /// The k cheapest structurally distinct full plans at `q`, cheapest
  /// first (fewer if the query admits fewer than k plans). One k-best DP
  /// pass over masks (no spill states), counted as a single optimizer
  /// call. The ESS refinement builder uses the list to lower-bound the
  /// cost of the best plan outside a candidate plan set.
  std::vector<std::unique_ptr<Plan>> OptimizeTopK(const EssPoint& q,
                                                  int k) const;

  /// Costs an arbitrary plan of this query at `q`.
  PlanCosting CostPlan(const Plan& plan, const EssPoint& q) const;

  /// Total cost only — allocation-free fast path. Many plans at many
  /// points are cheaper through PlanSetCoster, which returns the same bits.
  double PlanCost(const Plan& plan, const EssPoint& q) const {
    return SubtreeCost(plan.root(), q);
  }

  /// Cumulative cost of the subtree rooted at `node` (a node of one of
  /// this query's plans): bitwise CostPlan(plan, q).cost[node.id], without
  /// allocating. The spill oracles' binary searches probe it.
  double SubtreeCost(const PlanNode& node, const EssPoint& q) const {
    double rows = 0.0;
    double cost = 0.0;
    CostNodeFast(node, q, &rows, &cost);
    return cost;
  }

  const CardinalityEstimator& estimator() const { return estimator_; }
  const CostModel& cost_model() const { return cost_model_; }
  const Query& query() const { return *query_; }

  /// Number of full DP searches (Optimize, OptimizeConstrainedSpill,
  /// OptimizeTopK) served by this instance so far. Cheap relaxed counter; used by the
  /// ESS builders and benches to report how many optimizer invocations a
  /// surface construction needed.
  int64_t num_optimize_calls() const {
    return optimize_calls_.load(std::memory_order_relaxed);
  }

 private:
  struct DpCell;
  struct TopKEntry;
  /// Per-thread scratch for RunDp / OptimizeTopK: the per-mask
  /// cardinality table and the DP tables. Reused across calls (and across
  /// Optimizer instances) so the hot ESS-construction loop never
  /// allocates.
  struct DpArena;

  static DpArena& ThreadArena();

  /// Fills the arena's per-table filtered rows, per-join selectivities
  /// and per-mask cardinalities at `q` (the q-dependent quantities every
  /// DP variant consumes).
  void ComputeCards(const EssPoint& q, DpArena* arena) const;

  /// Runs the (mask, state) DP into `arena` (resized as needed). `states`
  /// is D+1: state 0 = no unlearned epp in subtree, state d+1 = first
  /// unlearned epp is dimension d.
  void RunDp(const EssPoint& q, const std::vector<bool>& unlearned,
             DpArena* arena) const;

  std::unique_ptr<PlanNode> Reconstruct(const std::vector<DpCell>& dp,
                                        uint64_t mask, int state) const;
  std::unique_ptr<PlanNode> ReconstructTopK(const DpArena& arena, int k,
                                            uint64_t mask, int idx) const;

  double CostNode(const PlanNode& node, const EssPoint& q,
                  PlanCosting* out) const;
  void CostNodeFast(const PlanNode& node, const EssPoint& q, double* rows,
                    double* cost) const;

  const Catalog* catalog_;
  const Query* query_;
  CardinalityEstimator estimator_;
  CostModel cost_model_;

  // Precomputed query structure.
  int num_tables_;
  int num_states_;  // query->num_epps() + 1
  std::vector<uint64_t> join_masks_;            // per join index
  std::vector<std::vector<int>> table_filters_;  // filters per table index
  /// Per join index: query-table id usable as the probed inner of an
  /// index nested-loop join (a hash index exists on its join column), or
  /// -1. Both sides may qualify; we store a bitmask of the two table ids.
  std::vector<uint64_t> inlj_inner_mask_;

  // q-independent per-mask structure, hoisted out of RunDp so repeated
  // optimizer calls (the ESS sweep) only redo the q-dependent work.
  /// Whether the table subset is connected under the join graph.
  std::vector<char> connected_;
  /// CSR layout of the joins fully contained in each mask, in ascending
  /// join-index order: joins `mask_join_list_[mask_join_offsets_[m] ..
  /// mask_join_offsets_[m + 1])` have both sides inside mask m.
  std::vector<int32_t> mask_join_offsets_;
  std::vector<int32_t> mask_join_list_;

  mutable std::atomic<int64_t> optimize_calls_{0};
};

}  // namespace robustqp

#endif  // ROBUSTQP_OPTIMIZER_OPTIMIZER_H_
