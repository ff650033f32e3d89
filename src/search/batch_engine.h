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
///   2. per-query elimination sweeps consuming the precomputed rows
///      (`NearestWithPivotRow` / `KNearestWithPivotRow`), fanned out as
///      above.
/// Results are bit-identical to the sequential per-query two-stage loop
/// (`ComputePivotRow` + `*WithPivotRow`), and the merged stats equal that
/// loop's sums minus the deduplicated pivot rows. Searchers without a
/// pivot stage fall back to the plain per-query path.
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

  /// Nearest prototype for every query in the span. `queries` is either a
  /// borrowed `PrototypeStore` or a `std::vector<std::string>` (packed once
  /// into a temporary store). Merged counters accumulate into `stats` when
  /// non-null.
  std::vector<NeighborResult> Nearest(PrototypeStoreRef queries,
                                      QueryStats* stats = nullptr) const;

  /// Sharded-searcher variant: additionally accumulates each visited
  /// candidate's evaluation onto its home shard. `shard_stats` is resized
  /// to the searcher's shard count; requires a `ShardedLaesa` searcher
  /// (throws std::invalid_argument otherwise).
  /// Stage-1 pivot evaluations of the pivot pipeline are global, not
  /// per-shard — they appear only in the merged `stats`.
  std::vector<NeighborResult> Nearest(PrototypeStoreRef queries,
                                      QueryStats* stats,
                                      std::vector<QueryStats>* shard_stats)
      const;

  /// k nearest prototypes for every query, each closest first. Requires a
  /// searcher family with a k-NN search; others throw std::logic_error.
  std::vector<std::vector<NeighborResult>> KNearest(
      PrototypeStoreRef queries, std::size_t k,
      QueryStats* stats = nullptr) const;

  /// 1-NN label for every query; `labels[i]` is the class of the searcher's
  /// i-th prototype. Throws std::invalid_argument on size mismatch.
  std::vector<int> Classify(PrototypeStoreRef queries,
                            const std::vector<int>& labels,
                            QueryStats* stats = nullptr) const;

  const NearestNeighborSearcher& searcher() const { return *searcher_; }

 private:
  /// Stage 1 of the pivot pipeline: the deduplicated, blocked query x pivot
  /// pass. Fills `row_of[i]` with query i's row ordinal and returns the
  /// row-major unique-query x pivot matrix; counts the evaluations into
  /// `stats`.
  std::vector<double> PivotStagePass(const class PivotStageSearcher& ps,
                                     const PrototypeStore& queries,
                                     std::vector<std::size_t>* row_of,
                                     QueryStats* stats) const;

  const NearestNeighborSearcher* searcher_;
  Options options_;
};

}  // namespace cned

#endif  // CNED_SEARCH_BATCH_ENGINE_H_
