// Cardinality estimation with selectivity injection. Filter selectivities
// come from the catalog's histograms (the paper treats filters as reliably
// estimable); join selectivities come either from the classic
// 1/max(NDV, NDV) formula (the "native" estimate a traditional optimizer
// would use) or from an injected value when the predicate is error-prone —
// the mechanism that lets us place the optimizer at an arbitrary location
// of the ESS, mirroring the paper's modified-PostgreSQL selectivity
// injection (Section 6.1).

#ifndef ROBUSTQP_OPTIMIZER_ESTIMATOR_H_
#define ROBUSTQP_OPTIMIZER_ESTIMATOR_H_

#include <vector>

#include "catalog/catalog.h"
#include "query/query.h"

namespace robustqp {

/// A location in the ESS: one selectivity in (0, 1] per epp dimension.
using EssPoint = std::vector<double>;

/// Per-query cardinality estimator. Construction resolves and caches all
/// statistics lookups; estimation calls are then allocation-free.
class CardinalityEstimator {
 public:
  CardinalityEstimator(const Catalog* catalog, const Query* query);

  /// The native (histogram-based) selectivity of filter `filter_idx`.
  double FilterSelectivity(int filter_idx) const {
    return filter_sel_[static_cast<size_t>(filter_idx)];
  }

  /// Selectivity of filter `filter_idx` at ESS location `q`: the injected
  /// value if the filter is an error-prone predicate, else the native
  /// histogram estimate.
  double FilterSelectivityAt(int filter_idx, const EssPoint& q) const {
    const int dim = FilterEppDim(filter_idx);
    return dim >= 0 ? q[static_cast<size_t>(dim)]
                    : filter_sel_[static_cast<size_t>(filter_idx)];
  }

  /// ESS dimension of filter `filter_idx`, or -1
  /// (Query::EppDimensionOfFilter, precomputed at construction).
  int FilterEppDim(int filter_idx) const {
    return filter_dim_[static_cast<size_t>(filter_idx)];
  }

  /// ESS dimension of join `join_idx`, or -1 (Query::EppDimensionOfJoin,
  /// precomputed at construction).
  int JoinEppDim(int join_idx) const {
    return join_dim_[static_cast<size_t>(join_idx)];
  }

  /// Estimated output cardinality of the scan of table `table_idx` after
  /// applying the given filters, with epp filters injected at `q`.
  double FilteredRows(int table_idx, const std::vector<int>& filter_indices,
                      const EssPoint& q) const;

  /// Raw stored row count of table `table_idx`.
  double RawRows(int table_idx) const {
    return raw_rows_[static_cast<size_t>(table_idx)];
  }

  /// The native (statistics-based) selectivity of join `join_idx`:
  /// 1 / max(NDV(left column), NDV(right column)).
  double NativeJoinSelectivity(int join_idx) const {
    return native_join_sel_[static_cast<size_t>(join_idx)];
  }

  /// Selectivity of join `join_idx` at ESS location `q`: the injected
  /// value if the join is an epp, else the native estimate.
  double JoinSelectivity(int join_idx, const EssPoint& q) const {
    const int dim = JoinEppDim(join_idx);
    return dim >= 0 ? q[static_cast<size_t>(dim)]
                    : native_join_sel_[static_cast<size_t>(join_idx)];
  }

  /// The native estimate of the full ESS location — where a traditional
  /// optimizer believes the query lives (the paper's q_e).
  EssPoint NativeEstimatePoint() const;

  const Query& query() const { return *query_; }

 private:
  const Query* query_;
  std::vector<double> raw_rows_;         // per table index
  std::vector<double> filter_sel_;       // per filter index
  std::vector<double> native_join_sel_;  // per join index
  std::vector<int> filter_dim_;          // per filter index: epp dim or -1
  std::vector<int> join_dim_;            // per join index: epp dim or -1
};

}  // namespace robustqp

#endif  // ROBUSTQP_OPTIMIZER_ESTIMATOR_H_
