#include "optimizer/plan_set_coster.h"

#include <algorithm>
#include <unordered_map>

#include "common/hash.h"
#include "common/status.h"

namespace robustqp {

namespace {

/// Hash-consing key: {op, table, left, right, predicate indices...}.
struct KeyHash {
  size_t operator()(const std::vector<int>& key) const {
    uint64_t h = kFnvOffsetBasis;
    for (int v : key) h = FnvMix(h, static_cast<uint32_t>(v));
    return h;
  }
};

/// One join node over a block: rows and cumulative cost, the arithmetic of
/// Optimizer::CostNodeFast. `cm` is a copy and the operands are declared
/// non-aliasing, so each loop vectorizes; `probed` is the probed table's
/// raw rows (index nested-loop joins only).
template <PlanOp kOp>
void JoinKernel(const CostModel cm, const double* __restrict lr,
                const double* __restrict rr, const double* __restrict lc,
                const double* __restrict rc, const double* __restrict js,
                double probed, double* __restrict rows,
                double* __restrict cost) {
  constexpr int64_t B = PlanSetCoster::kBlock;
  for (int64_t k = 0; k < B; ++k) rows[k] = lr[k] * rr[k] * js[k];
  for (int64_t k = 0; k < B; ++k) {
    if constexpr (kOp == PlanOp::kHashJoin) {
      cost[k] = lc[k] + rc[k] + cm.HashJoinCost(lr[k], rr[k], rows[k]);
    } else if constexpr (kOp == PlanOp::kNLJoin) {
      cost[k] = lc[k] + rc[k] + cm.NLJoinCost(lr[k], rr[k], rows[k]);
    } else if constexpr (kOp == PlanOp::kSortMergeJoin) {
      cost[k] = lc[k] + rc[k] + cm.SortMergeJoinCost(lr[k], rr[k], rows[k]);
    } else {
      // The probed table is never scanned: its cost does not count.
      const double fetched = lr[k] * probed * js[k];
      cost[k] = lc[k] + cm.IndexNLJoinCost(lr[k], fetched, rows[k]);
    }
  }
}

}  // namespace

struct PlanSetCoster::Index {
  std::unordered_map<std::vector<int>, int, KeyHash> ids;
  std::vector<int> key;
};

struct PlanSetCoster::Scratch {
  std::vector<double> sel;       // dims x kBlock, one array per dimension
  std::vector<double> rows;      // slots x kBlock
  std::vector<double> cost;      // slots x kBlock
  std::vector<double> join_sel;  // kBlock
  std::vector<const double*> plan_costs;
};

PlanSetCoster::PlanSetCoster(const Optimizer& optimizer,
                             const std::vector<const Plan*>& plans)
    : cost_model_(optimizer.cost_model()),
      dims_(optimizer.query().num_epps()) {
  Index index;
  roots_.reserve(plans.size());
  for (const Plan* plan : plans) {
    roots_.push_back(Intern(plan->root(), optimizer.estimator(), &index));
  }
  // Slot assignment in evaluation order: a child's slot is freed once its
  // last parent is evaluated, so scratch scales with the DAG's width.
  const int n = num_nodes();
  std::vector<int> last_use(nodes_.size(), -1);
  for (int i = 0; i < n; ++i) {
    const Node& node = nodes_[static_cast<size_t>(i)];
    for (int c : {node.left, node.right}) {
      if (c >= 0) last_use[static_cast<size_t>(c)] = i;
    }
  }
  for (int r : roots_) last_use[static_cast<size_t>(r)] = n;
  std::vector<int> free_slots;
  for (int i = 0; i < n; ++i) {
    Node& node = nodes_[static_cast<size_t>(i)];
    if (free_slots.empty()) {
      node.slot = num_slots_++;
    } else {
      node.slot = free_slots.back();
      free_slots.pop_back();
    }
    for (int c : {node.left, node.right}) {
      if (c >= 0 && last_use[static_cast<size_t>(c)] == i) {
        free_slots.push_back(nodes_[static_cast<size_t>(c)].slot);
      }
    }
  }
}

int PlanSetCoster::Intern(const PlanNode& node,
                          const CardinalityEstimator& est, Index* index) {
  const int left = node.left ? Intern(*node.left, est, index) : -1;
  const int right = node.right ? Intern(*node.right, est, index) : -1;
  const std::vector<int>& preds =
      node.is_join() ? node.join_indices : node.filter_indices;
  std::vector<int>& key = index->key;
  key.assign({static_cast<int>(node.op), node.table_idx, left, right});
  key.insert(key.end(), preds.begin(), preds.end());
  const auto [it, inserted] =
      index->ids.try_emplace(key, static_cast<int>(nodes_.size()));
  if (!inserted) return it->second;

  Node n{node.op, left, right, static_cast<int>(factors_.size()), 0, 0.0, -1};
  for (int i : preds) {
    const int dim = node.is_join() ? est.JoinEppDim(i) : est.FilterEppDim(i);
    const double native = node.is_join() ? est.NativeJoinSelectivity(i)
                                         : est.FilterSelectivity(i);
    factors_.push_back(Factor{dim, native});
  }
  n.factors_end = static_cast<int>(factors_.size());
  if (node.op == PlanOp::kSeqScan) {
    n.raw_rows = est.RawRows(node.table_idx);
  } else if (node.op == PlanOp::kIndexNLJoin) {
    n.raw_rows = est.RawRows(node.right->table_idx);
  }
  nodes_.push_back(n);
  return it->second;
}

// Mirrors Optimizer::CostNodeFast (and CardinalityEstimator::FilteredRows)
// operation for operation, one node at a time across the block's points.
// Every loop runs over all kBlock lanes with non-aliasing operands, so the
// compiler vectorizes it at -O2; lanes past the last point repeat it and
// are never handed out.
void PlanSetCoster::EvalBlock(int64_t begin, int64_t end,
                              const PointFn& point_at, Scratch* s) const {
  constexpr int64_t B = kBlock;
  for (int64_t k = 0; k < B; ++k) {
    if (k < end - begin) {
      const EssPoint q = point_at(begin + k);
      RQP_CHECK(static_cast<int>(q.size()) == dims_);
      for (int d = 0; d < dims_; ++d) {
        s->sel[static_cast<size_t>(d * B + k)] = q[static_cast<size_t>(d)];
      }
    } else {
      for (int d = 0; d < dims_; ++d) {
        s->sel[static_cast<size_t>(d * B + k)] =
            s->sel[static_cast<size_t>(d * B + k - 1)];
      }
    }
  }
  // Multiplies `out` by every factor of [fb, fe), in order.
  const auto apply_factors = [&](int fb, int fe, double* __restrict out) {
    for (int f = fb; f < fe; ++f) {
      const Factor& fac = factors_[static_cast<size_t>(f)];
      if (fac.dim >= 0) {
        const double* __restrict sel = s->sel.data() + fac.dim * B;
        for (int64_t k = 0; k < B; ++k) out[k] *= sel[k];
      } else {
        const double v = fac.value;
        for (int64_t k = 0; k < B; ++k) out[k] *= v;
      }
    }
  };

  double* js = s->join_sel.data();
  for (const Node& node : nodes_) {
    double* rows = s->rows.data() + node.slot * B;
    double* cost = s->cost.data() + node.slot * B;
    if (node.op == PlanOp::kSeqScan) {
      for (int64_t k = 0; k < B; ++k) rows[k] = node.raw_rows;
      apply_factors(node.factors_begin, node.factors_end, rows);
      for (int64_t k = 0; k < B; ++k) rows[k] = std::max(rows[k], 1.0);
      const double scan_cost = cost_model_.ScanCost(node.raw_rows);
      for (int64_t k = 0; k < B; ++k) cost[k] = scan_cost;
      continue;
    }
    for (int64_t k = 0; k < B; ++k) js[k] = 1.0;
    apply_factors(node.factors_begin, node.factors_end, js);
    const int64_t l = nodes_[static_cast<size_t>(node.left)].slot * B;
    const int64_t r = nodes_[static_cast<size_t>(node.right)].slot * B;
    const double* lr = s->rows.data() + l;
    const double* rr = s->rows.data() + r;
    const double* lc = s->cost.data() + l;
    const double* rc = s->cost.data() + r;
    switch (node.op) {
      case PlanOp::kHashJoin:
        JoinKernel<PlanOp::kHashJoin>(cost_model_, lr, rr, lc, rc, js, 0.0,
                                      rows, cost);
        break;
      case PlanOp::kNLJoin:
        JoinKernel<PlanOp::kNLJoin>(cost_model_, lr, rr, lc, rc, js, 0.0,
                                    rows, cost);
        break;
      case PlanOp::kSortMergeJoin:
        JoinKernel<PlanOp::kSortMergeJoin>(cost_model_, lr, rr, lc, rc, js,
                                           0.0, rows, cost);
        break;
      default:
        JoinKernel<PlanOp::kIndexNLJoin>(cost_model_, lr, rr, lc, rc, js,
                                         node.raw_rows, rows, cost);
        break;
    }
  }
  for (size_t p = 0; p < roots_.size(); ++p) {
    s->plan_costs[p] =
        s->cost.data() + nodes_[static_cast<size_t>(roots_[p])].slot * B;
  }
}

void PlanSetCoster::ForEachBlock(int64_t num_points, const PointFn& point_at,
                                 ThreadPool* pool,
                                 const BlockSink& sink) const {
  const int64_t num_blocks = (num_points + kBlock - 1) / kBlock;
  const auto run = [&](int64_t first_block, int64_t last_block) {
    Scratch s;
    s.sel.resize(static_cast<size_t>(dims_ * kBlock));
    s.rows.resize(static_cast<size_t>(num_slots_ * kBlock));
    s.cost.resize(static_cast<size_t>(num_slots_ * kBlock));
    s.join_sel.resize(kBlock);
    s.plan_costs.resize(roots_.size());
    for (int64_t b = first_block; b < last_block; ++b) {
      const int64_t begin = b * kBlock;
      const int64_t end = std::min(num_points, begin + kBlock);
      EvalBlock(begin, end, point_at, &s);
      sink(begin, end, s.plan_costs.data());
    }
  };
  if (pool == nullptr || pool->num_threads() <= 1 || num_blocks <= 1) {
    run(0, num_blocks);
    return;
  }
  RQP_CHECK(ParallelFor(pool, num_blocks,
                        [&](int /*worker*/, int64_t first, int64_t last) {
                          run(first, last);
                        })
                .ok());
}

}  // namespace robustqp
