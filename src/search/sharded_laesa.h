#ifndef CNED_SEARCH_SHARDED_LAESA_H_
#define CNED_SEARCH_SHARDED_LAESA_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "datasets/sharded_prototype_store.h"
#include "distances/distance.h"
#include "search/nn_searcher.h"
#include "search/pivot_stage.h"
#include "search/pivot_sweep.h"
#include "search/table_quant.h"

namespace cned {

/// LAESA over a `ShardedPrototypeStore`: one pivot table per shard, one
/// shared (global) pivot set.
///
/// Pivots are selected max-min over the *whole* logical set — the same
/// sequence a flat `Laesa` would pick — and each shard stores the distances
/// from every pivot to its own prototypes as an independent row-major
/// table (an independently built, independently mmap-able unit). Pivots
/// are prototypes, so their own lower bounds come out of the same tables
/// and they remain adaptive candidates of their home shard.
///
/// The tables are one `PivotTables` (pivot_sweep.h) with a segment per
/// shard: the build, `Load` and `Map` fill it the way they fill the flat
/// index's one-segment table, after the shard-size section, and the pivot
/// ids must be distinct. Query execution runs the shared sweep core over
/// those S segments; the flat `Laesa` runs it over one. Each
/// visited pivot's per-shard passes fan out through `ParallelFor` when
/// enough candidates survive, and their minima merge in shard order — so
/// neighbours, distances *and* `QueryStats` are bit-identical to the
/// single-store `Laesa` on every distance, metric or not, regardless of
/// shard count or thread schedule.
///
/// There is one k-NN search per entry point, and 1-NN is its k = 1 case
/// (the inherited `Nearest`). `KNearestWithPivotRow` is the sharded half of
/// the batch engine's two-stage pipeline (see pivot_stage.h): the engine
/// evaluates the query x pivot block once for the whole batch and each
/// sweep then consumes its precomputed row — per-shard row application in
/// parallel, followed by the same global bound-order phase over the
/// survivors.
class ShardedLaesa final : public NearestNeighborSearcher,
                           public PivotStageSearcher {
 public:
  /// Shared per-query cost counters (see `cned::QueryStats`).
  using QueryStats = ::cned::QueryStats;

  /// Builds per-shard pivot tables with greedy max-min pivots over the
  /// global set, starting from global index 0. `store` is
  /// borrowed — the caller keeps it alive. Costs ~2·num_pivots·N distance
  /// evaluations, the same as the flat index.
  ///
  /// `table_precision` quantizes the shard tables exactly as in `Laesa`:
  /// each GLOBAL pivot row gets one shared decode meta (scanned across all
  /// shards before encoding), so a sharded build stays bit-identical to the
  /// flat build at the same precision.
  ShardedLaesa(const ShardedPrototypeStore& store, StringDistancePtr distance,
               std::size_t num_pivots,
               TablePrecision table_precision = DefaultTablePrecision());

  /// The k nearest prototypes (global indexes), closest first; k = 1 is
  /// the inherited `Nearest`. `shard_stats`, when non-null, must point at
  /// shard_count() entries; each visited candidate's evaluation is
  /// accumulated onto its home shard.
  std::vector<NeighborResult> KNearest(
      std::string_view query, std::size_t k,
      QueryStats* stats = nullptr) const override;
  std::vector<NeighborResult> KNearest(std::string_view query, std::size_t k,
                                       QueryStats* stats,
                                       QueryStats* shard_stats) const;

  std::size_t size() const override { return store_->size(); }
  std::size_t shard_count() const { return store_->shard_count(); }

  /// The sharded prototype set the index searches over.
  const ShardedPrototypeStore& store() const { return *store_; }

  std::size_t num_pivots() const { return pivots().size(); }
  const std::vector<std::size_t>& pivots() const {
    return pivot_table_.pivots();
  }

  /// Distance evaluations spent in preprocessing (pivot selection + tables).
  std::uint64_t preprocessing_computations() const {
    return preprocessing_computations_;
  }

  // PivotStageSearcher: the batched pivot stage of the query engine.
  std::size_t pivot_count() const override { return pivots().size(); }
  std::string_view PivotString(std::size_t p) const override {
    return store_->view(pivots()[p]);
  }
  const StringDistance& pivot_distance() const override { return *distance_; }
  void ComputePivotRow(std::string_view query, double* row,
                       QueryStats* stats = nullptr) const override;
  std::vector<NeighborResult> KNearestWithPivotRow(
      std::string_view query, std::size_t k, const double* row,
      QueryStats* stats = nullptr) const override;
  std::vector<NeighborResult> KNearestWithPivotRow(std::string_view query,
                                                   std::size_t k,
                                                   const double* row,
                                                   QueryStats* stats,
                                                   QueryStats* shard_stats)
      const;

  /// Binary serialization (shard sizes, global pivots and every per-shard
  /// table, 64-byte-aligned sections — common/binary_io.h). Pair with
  /// `ShardedPrototypeStore::SaveBinary` for a full serving snapshot.
  void Save(const std::string& path) const;

  /// Writes shard `s`'s slice of the index as a standalone snapshot: the
  /// global pivot ids plus that shard's table only, with enough header
  /// shape (total size, shard count, shard id, base) for a worker process
  /// to validate it belongs to the deployment it joined. A distributed
  /// shard worker maps this file plus the matching
  /// `store().shard(s).SaveBinary` store file and serves its segment of
  /// the sweep without ever touching the other shards' bytes
  /// (src/serve/replica.h).
  void SaveShard(std::size_t s, const std::string& path) const;

  /// Writes the router's half of a distributed snapshot: shard sizes, the
  /// global pivot ids and the pivot *strings*. The scatter/gather router
  /// loads only this manifest — it evaluates the pivot stage locally from
  /// the embedded strings and leaves every non-pivot candidate to the
  /// shard workers, so its memory stays O(pivots), not O(N).
  void SaveRouterManifest(const std::string& path) const;

  /// Restores an index saved by `Save` against the *same* sharded store and
  /// distance. Throws std::runtime_error on malformed input or a
  /// store-shape mismatch. It reads through a shared mapping of the file,
  /// as `Map` does, so it must not race a writer to the same path (a
  /// concurrent `Save` truncates the file and can raise `SIGBUS`).
  static ShardedLaesa Load(const std::string& path,
                           const ShardedPrototypeStore& store,
                           StringDistancePtr distance);

  /// Zero-copy form of `Load`: maps the file and points every per-shard
  /// table view at its section in place — no table is copied, so startup is
  /// O(N) bookkeeping instead of O(pivots x N), and each shard's table
  /// remains an independently page-cache-shared unit. `Load` walks the same
  /// sections, checksum verified, and copies them; results and
  /// `QueryStats` are bit-identical to the built index.
  static ShardedLaesa Map(const std::string& path,
                          const ShardedPrototypeStore& store,
                          StringDistancePtr distance);

  /// True when the shard tables alias a mapped snapshot.
  bool mapped() const { return pivot_table_.mapped(); }

  /// Storage precision of the shard tables.
  TablePrecision table_precision() const { return pivot_table_.precision(); }

 private:
  struct InternalTag {};
  ShardedLaesa(InternalTag, const ShardedPrototypeStore& store,
               StringDistancePtr distance)
      : store_(&store), distance_(std::move(distance)) {}

  /// Restores a snapshot written by `Save`: `Map` when `copy` is false,
  /// `Load` when it is true. `who` prefixes the error messages.
  static ShardedLaesa Open(const std::string& path,
                           const ShardedPrototypeStore& store,
                           StringDistancePtr distance, bool copy,
                           const char* who);

  /// The shared sweep core (pivot_sweep.h) over one segment per shard,
  /// built per call from the table's views.
  PivotSweep core() const;

  const ShardedPrototypeStore* store_;
  StringDistancePtr distance_;
  /// The pivot table, one segment per shard: shard s's slice holds
  /// d(pivot p, shard s's j-th prototype) at [p * n_s + j]. Pivots are
  /// prototypes, so their own bounds come from these slices too. Every
  /// shard decodes a row with the same global meta, which keeps sharded ==
  /// flat bitwise. Pivot ids are distinct.
  PivotTables pivot_table_;
  std::uint64_t preprocessing_computations_ = 0;
};

}  // namespace cned

#endif  // CNED_SEARCH_SHARDED_LAESA_H_
