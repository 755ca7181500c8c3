// Batched costing of one plan set at many ESS points — the coverage fills
// behind PlanBouquet's per-contour anorexic reduction, PlanDiagram's
// global reduction and the native worst-case sweep.
//
// The plans are hash-consed into a DAG of shared subtrees (the POSP plans
// of a query share most of their subtrees), and the DAG is evaluated over
// fixed-size blocks of points laid out one array per ESS dimension. Each
// node does the multiplications and additions of Optimizer::PlanCost in
// the same order, so every cost is bitwise equal to PlanCost(plan, point),
// whatever the block or the thread that computed it.

#ifndef ROBUSTQP_OPTIMIZER_PLAN_SET_COSTER_H_
#define ROBUSTQP_OPTIMIZER_PLAN_SET_COSTER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/thread_pool.h"
#include "optimizer/optimizer.h"

namespace robustqp {

class PlanSetCoster {
 public:
  /// Points per evaluation block. A worker's scratch holds
  /// (2 * num_slots() + dims + 1) * kBlock doubles.
  static constexpr int64_t kBlock = 64;

  /// Supplies ESS point i.
  using PointFn = std::function<EssPoint(int64_t i)>;
  /// Receives the costs of the points [begin, end): `plan_costs[p][k]` is
  /// plan p's cost at point begin + k.
  using BlockSink = std::function<void(int64_t begin, int64_t end,
                                       const double* const* plan_costs)>;

  /// `plans` must be plans of `optimizer`'s query; the coster keeps no
  /// reference to them or to `optimizer`.
  PlanSetCoster(const Optimizer& optimizer,
                const std::vector<const Plan*>& plans);

  int num_plans() const { return static_cast<int>(roots_.size()); }
  /// Distinct subtrees across the plan set.
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  /// Scratch slots: a node's values occupy one from its evaluation until
  /// its last parent has read them (a root's, to the end of the block).
  int num_slots() const { return num_slots_; }

  /// Costs every plan at points 0 .. num_points - 1 and hands each block
  /// of kBlock points to `sink`, in ascending order when `pool` is null or
  /// has one worker. Otherwise blocks run concurrently on the pool, each
  /// worker with its own scratch, and `sink` may only write per-point
  /// state. The costs never depend on the pool.
  void ForEachBlock(int64_t num_points, const PointFn& point_at,
                    ThreadPool* pool, const BlockSink& sink) const;

 private:
  /// A selectivity factor: q[dim] when dim >= 0, else the native `value`.
  struct Factor {
    int dim;
    double value;
  };
  struct Node {
    PlanOp op;
    int left;   // DAG ids; -1 for scans
    int right;
    /// The scan's filters or the join's predicates: factors_[begin, end).
    int factors_begin;
    int factors_end;
    /// Scans: raw stored rows. Index nested-loop joins: raw rows of the
    /// probed table.
    double raw_rows;
    /// Scratch slot holding this node's rows and cost.
    int slot;
  };
  struct Scratch;
  struct Index;  // hash-consing table, construction only

  int Intern(const PlanNode& node, const CardinalityEstimator& est,
             Index* index);
  void EvalBlock(int64_t begin, int64_t end, const PointFn& point_at,
                 Scratch* s) const;

  CostModel cost_model_;
  int dims_;
  std::vector<Node> nodes_;  // children precede parents
  std::vector<Factor> factors_;
  std::vector<int> roots_;  // per plan
  int num_slots_ = 0;
};

}  // namespace robustqp

#endif  // ROBUSTQP_OPTIMIZER_PLAN_SET_COSTER_H_
