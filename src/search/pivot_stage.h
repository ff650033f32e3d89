#ifndef CNED_SEARCH_PIVOT_STAGE_H_
#define CNED_SEARCH_PIVOT_STAGE_H_

#include <cstddef>
#include <string_view>
#include <vector>

#include "distances/distance.h"
#include "search/nn_searcher.h"

namespace cned {

/// One query of a row-sweep group (`KNearestWithPivotRows`).
struct PivotRowQuery {
  std::string_view query;
  /// row[p] = d(query, pivot p), exact. `PivotSweep` (pivot_sweep.h) reads
  /// a null row as its lazy sweep, in a group of one.
  const double* row = nullptr;
  /// Receives the sweep's own evaluations when non-null.
  QueryStats* stats = nullptr;
};

/// Interface of searchers whose query work splits into a pivot stage (exact
/// query-pivot distance evaluations, independent of elimination) and an
/// elimination sweep consuming those values — the LAESA family.
///
/// The split is what lets `BatchQueryEngine` run its two-stage pipeline:
/// every query of a batch shares the same pivot set, so the engine evaluates
/// the query x pivot distance block once, in pivot-major blocked order
/// (each pivot string streamed once per query block, duplicate query
/// strings evaluated once), and hands each query its precomputed row.
///
/// Contract: `KNearestWithPivotRows` (or its one-query form
/// `KNearestWithPivotRow(q, k, row, stats)`) with `row` produced by
/// `ComputePivotRow(q, row, ...)` returns exactly the same neighbours as an
/// engine-driven two-stage query, and `row[p]` must hold the exact distance
/// from the query to pivot `p`. 1-NN is k = 1; there is no separate 1-NN
/// row sweep. The row-consuming sweep applies *all* pivot rows up front
/// (the pivot distances are already paid for), which makes its trajectory
/// — and therefore its `QueryStats` — intentionally different from the
/// lazy `KNearest` path that evaluates pivots adaptively and may skip
/// eliminated ones: the batched mode trades unconditional pivot rows for
/// tighter bounds, fewer non-pivot evaluations and a cache-friendly
/// evaluation order.
class PivotStageSearcher {
 public:
  virtual ~PivotStageSearcher() = default;

  /// Number of pivots (row length for the stage).
  virtual std::size_t pivot_count() const = 0;

  /// The p-th pivot string (a view into the prototype store).
  virtual std::string_view PivotString(std::size_t p) const = 0;

  /// The distance the pivot stage must evaluate with.
  virtual const StringDistance& pivot_distance() const = 0;

  /// Fills `row[p] = d(query, pivot_p)` for all pivots (exact evaluations)
  /// and counts them into `stats` when non-null — the sequential reference
  /// for the engine's blocked pass.
  virtual void ComputePivotRow(std::string_view query, double* row,
                               QueryStats* stats = nullptr) const = 0;

  /// k nearest neighbours of each query of `group`, closest first, into
  /// out[b] for every b < count, given its precomputed pivot row. Counts
  /// only the sweep's own (non-pivot) evaluations into group[b].stats —
  /// the row was counted by whoever computed it. Each query's neighbours,
  /// trajectory and `QueryStats` are exactly its own, as in a group of
  /// one. The queries share only the work that does not depend on which
  /// query runs it: a LAESA sweep streams its pivot table once per group
  /// of up to `kMaxRowQueries` queries (sweep_kernel.h) instead of once
  /// per query, at the cost of one dense bound slab per query of the
  /// group.
  virtual void KNearestWithPivotRows(const PivotRowQuery* group,
                                     std::size_t count, std::size_t k,
                                     std::vector<NeighborResult>* out) const = 0;

  /// One query's k nearest neighbours given its pivot row: the group of
  /// one.
  std::vector<NeighborResult> KNearestWithPivotRow(
      std::string_view query, std::size_t k, const double* row,
      QueryStats* stats = nullptr) const {
    std::vector<NeighborResult> out;
    const PivotRowQuery one{query, row, stats};
    KNearestWithPivotRows(&one, 1, k, &out);
    return out;
  }
};

}  // namespace cned

#endif  // CNED_SEARCH_PIVOT_STAGE_H_
