#ifndef CNED_SEARCH_BATCH_ENGINE_H_
#define CNED_SEARCH_BATCH_ENGINE_H_

#include <cstddef>
#include <vector>

#include "datasets/prototype_store.h"
#include "search/nn_searcher.h"

namespace cned {

/// Batched query execution over any `NearestNeighborSearcher`.
///
/// The paper's §4.3 experiments — and every production serving scenario the
/// ROADMAP targets — answer thousands of independent queries against one
/// index. Looping `Nearest` one query at a time leaves all but one core
/// idle; the engine instead fans the query span out through `ParallelFor`,
/// where the per-thread DP workspaces and LAESA sweep scratch (all
/// thread-local) make every searcher safe to drive concurrently.
///
/// Determinism: queries are independent and each result slot is written by
/// exactly one task, so the returned neighbours are bit-identical to the
/// sequential per-query loop, and the merged `QueryStats` equal the
/// sequential sums regardless of thread schedule.
///
/// With `Options::pivot_stage` set and a LAESA-family searcher (one
/// implementing `PivotStageSearcher`), execution becomes a two-stage
/// pipeline instead:
///   1. a blocked query x pivot distance pass shared across the whole
///      batch — pivots iterate in the outer loop of each query block, so
///      every pivot string is streamed once per block while it is hot in
///      cache, and duplicate query strings are evaluated once for the
///      whole batch (popular queries are free after the first);
///   2. elimination sweeps consuming the precomputed rows, fanned out as
///      above in groups of four consecutive queries
///      (`KNearestWithPivotRows`): a group streams the pivot table once
///      instead of once per query, and each query's sweep is otherwise its
///      own. The group size is a constant, four, lowered to floor(n /
///      threads) for a batch of n under four queries per worker so that
///      every worker still gets a group. Its memory cost is one dense
///      bound slab per query of a group, so each worker holds up to
///      (4 - 1) x 8N bytes more than a one-query sweep over N prototypes
///      (480 KB at N = 20,000).
/// Results are bit-identical to the sequential per-query two-stage loop
/// (`ComputePivotRow` + `KNearestWithPivotRow`), and the merged stats
/// equal that loop's sums minus the deduplicated pivot rows. Searchers
/// without a pivot stage fall back to the plain per-query path.
///
/// Both paths are one k-NN runner: `Nearest` is `KNearest` with k = 1,
/// each query's first neighbour.
///
/// Table 2's error rate (`NearestNeighborClassifier::ErrorRatePercent`)
/// labels the results of one `Nearest` pass.
class BatchQueryEngine {
 public:
  struct Options {
    /// Worker threads; 0 means hardware concurrency.
    std::size_t threads = 0;
    /// Run the two-stage pivot pipeline when the searcher supports it;
    /// its stage-1 pass runs in blocks of 32 queries (the cache-tile
    /// height).
    bool pivot_stage = false;
  };

  /// Borrows `searcher` (caller keeps it alive).
  explicit BatchQueryEngine(const NearestNeighborSearcher& searcher);
  BatchQueryEngine(const NearestNeighborSearcher& searcher, Options options);

  /// Nearest prototype for every query in the span: each query's first
  /// neighbour under `KNearest(queries, 1, ...)`. `queries` is either a
  /// borrowed `PrototypeStore` or a `std::vector<std::string>` (packed once
  /// into a temporary store). Merged counters accumulate into `stats` when
  /// non-null. Throws std::out_of_range when the index holds no prototype.
  ///
  /// With `shard_stats` non-null it also accumulates each visited
  /// candidate's evaluation onto its home segment: the searcher must be a
  /// `Laesa` (std::invalid_argument otherwise), and `shard_stats` is resized
  /// to its segment count (one entry for a flat index). Stage-1 pivot
  /// evaluations of the pivot pipeline are global, not per-shard — they
  /// appear only in the merged `stats`.
  std::vector<NeighborResult> Nearest(
      PrototypeStoreRef queries, QueryStats* stats = nullptr,
      std::vector<QueryStats>* shard_stats = nullptr) const;

  /// k nearest prototypes for every query, each closest first.
  std::vector<std::vector<NeighborResult>> KNearest(
      PrototypeStoreRef queries, std::size_t k,
      QueryStats* stats = nullptr) const;

 private:
  const NearestNeighborSearcher* searcher_;
  Options options_;
};

}  // namespace cned

#endif  // CNED_SEARCH_BATCH_ENGINE_H_
