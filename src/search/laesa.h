#ifndef CNED_SEARCH_LAESA_H_
#define CNED_SEARCH_LAESA_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "datasets/prototype_store.h"
#include "datasets/sharded_prototype_store.h"
#include "distances/distance.h"
#include "search/nn_searcher.h"
#include "search/pivot_stage.h"
#include "search/pivot_sweep.h"
#include "search/table_quant.h"

namespace cned {

/// LAESA — Linear Approximating and Eliminating Search Algorithm
/// (Micó, Oncina & Vidal, Pattern Recognition Letters 1994).
///
/// Preprocessing selects `num_pivots` base prototypes and stores the
/// distances from each pivot to every prototype: linear memory and
/// preprocessing in the number of prototypes, unlike AESA's quadratic
/// matrix. At query time the triangle inequality turns each computed
/// query-pivot distance into lower bounds g(p) = max_s |d(q,s) - d(s,p)|
/// that eliminate prototypes without computing their distance; candidates
/// are visited in increasing lower-bound order, pivots first.
///
/// The index runs over S segments: one `PrototypeStore` per segment, in
/// global id order. A flat store is the S = 1 case; a
/// `ShardedPrototypeStore` gives one segment per shard. Pivots are chosen
/// max-min over the whole global id space, so every S picks the same
/// sequence, and each segment holds its slice of the one pivot table
/// (`PivotTables`, pivot_sweep.h), each global row quantized with one
/// shared meta. The segment list (base, store, table view) is built once;
/// every query runs the shared sweep core over it. Per-segment passes fan
/// out through `ParallelFor` when they carry enough work and their
/// minima merge in segment order, so neighbours, distances *and*
/// `QueryStats` are bit-identical for every S, on every distance, metric
/// or not, regardless of thread schedule.
///
/// Every query entry point is a k-NN search (`KNearest`,
/// `KNearestWithPivotRow`); the paper's 1-NN search is k = 1, the inherited
/// `Nearest`. Pivot ids are distinct at every S: the ablation constructor,
/// `Load` and `Map` reject a pivot id listed twice. The hot path is a
/// flat structure-of-arrays sweep: the lower bounds live in one dense
/// array indexed by candidate id, and the pivots' bounds in an np-entry
/// array of their own. `KNearest` visits pivots while any survive, each
/// visit one dense pass over that array with a row of the np x np pivot
/// block (`PivotBlock`, gathered from the table at build, Load and Map);
/// `KNearestWithPivotRow` takes every row at once. The rows taken are
/// then applied to the dense array in one blocked pass over the table,
/// shared by a group of up to four queries in `KNearestWithPivotRows`,
/// and the other
/// candidates are visited in bound
/// order from a survivor stream: ids counting-sorted into bound buckets
/// over the dense bound array, a bucket sorted only when the visits reach
/// it (`SurvivorStream`, sweep_kernel.h). No per-candidate pointer
/// chasing, no per-query slab allocation (thread-local scratch), and the
/// length-difference lower bound of the distance acts as a free "zeroth
/// pivot" over the stores' flat length arrays before any distance is
/// computed.
///
/// With a true metric the returned neighbour is exactly the nearest. The
/// paper (and this reproduction) also runs LAESA with non-metric
/// normalisations (d_max, d_MV, d_C,h); elimination is then heuristic, which
/// is precisely what Table 2 quantifies.
class Laesa final : public NearestNeighborSearcher, public PivotStageSearcher {
 public:
  /// Shared per-query cost counters (see `cned::QueryStats`).
  using QueryStats = ::cned::QueryStats;

  /// Builds the pivot table with greedy max-min pivots starting from
  /// prototype 0. `prototypes` is either a borrowed
  /// `PrototypeStore` (caller keeps it alive) or a `std::vector<std::string>`
  /// packed once into an owned store. Costs ~2·num_pivots·N distance
  /// evaluations (selection, then the table).
  ///
  /// `table_precision` selects the pivot table's storage (table_quant.h):
  /// f64 keeps the exact table; f32/f16/u8 quantize each row with
  /// admissible round-down — search RESULTS stay exact (elimination only
  /// prunes less), snapshots and sweep bandwidth shrink by the
  /// element-width ratio. The |Δlen| zeroth-pivot bound is never quantized.
  Laesa(PrototypeStoreRef prototypes, StringDistancePtr distance,
        std::size_t num_pivots,
        TablePrecision table_precision = DefaultTablePrecision());

  /// Builds with externally chosen pivot indices (ablation hook), S = 1.
  /// Throws std::invalid_argument on an index out of range or listed twice.
  Laesa(PrototypeStoreRef prototypes, StringDistancePtr distance,
        std::vector<std::size_t> pivot_indices,
        TablePrecision table_precision = DefaultTablePrecision());

  /// Builds over the shards of `store`, one segment each (borrowed: the
  /// caller keeps it alive), with the pivots a flat build of the same
  /// strings picks.
  Laesa(const ShardedPrototypeStore& store, StringDistancePtr distance,
        std::size_t num_pivots,
        TablePrecision table_precision = DefaultTablePrecision());

  std::size_t size() const override { return size_; }
  std::size_t shard_count() const { return segments_.size(); }

  /// The segments in base order: global ids [base, base + store->size())
  /// and their slice of the pivot table.
  const std::vector<SweepSegment>& segments() const { return segments_; }

  /// The k nearest prototypes (global ids), closest first (extension of
  /// the paper's 1-NN LAESA: elimination prunes against the current k-th
  /// best). The paper's search is k = 1, the inherited `Nearest`.
  /// `shard_stats`, when non-null, must point at shard_count() entries;
  /// each visited candidate's evaluation is accumulated onto its home
  /// segment.
  ///
  /// `tombstones`, for the mutable tier (mutable_laesa.h), is a packed
  /// bitmap over prototype slots (bit i set = deleted,
  /// TombstoneWords(size()) words). Masked slots are eliminated before
  /// anything is visited — their bounds are forced to +inf, which the
  /// pivot phase and the survivor stream both drop (see sweep_kernel.h)
  /// — so a deleted prototype is never
  /// evaluated, never returned and never counted, at every table_precision
  /// and under every kernel variant. A null bitmap is the plain sweep; with
  /// every slot deleted the result is empty.
  std::vector<NeighborResult> KNearest(
      std::string_view query, std::size_t k,
      QueryStats* stats = nullptr) const override;
  std::vector<NeighborResult> KNearest(
      std::string_view query, std::size_t k, QueryStats* stats,
      QueryStats* shard_stats,
      const std::uint64_t* tombstones = nullptr) const;

  /// Serialises the pivot table (not the prototypes): versioned 64-byte
  /// header {N, S, pivots, precision}, then the segment sizes, the pivot
  /// ids, the row metas of a quantized table and one table section per
  /// segment, each 64-byte aligned (the mmap-ready format of
  /// common/binary_io.h). Rebuild with `Load` or `Map` against the *same*
  /// prototype set, segmented the same way, and distance — so the
  /// O(pivots x N) preprocessing is paid once. Pair with the store's
  /// `SaveBinary` for a complete serving snapshot.
  void Save(const std::string& path) const;

  /// Writes segment `s`'s slice of the index as a standalone snapshot: the
  /// global pivot ids plus that segment's table only, with enough header
  /// shape (total size, segment count, segment id, base) for a worker
  /// process to validate it belongs to the deployment it joined. A
  /// distributed shard worker maps this file plus the matching segment
  /// store file and serves its segment of the sweep without ever touching
  /// the other segments' bytes (src/serve/replica.h).
  void SaveShard(std::size_t s, const std::string& path) const;

  /// Writes the router's half of a distributed snapshot: segment sizes,
  /// the global pivot ids, the pivot *strings* and the pivot block with
  /// its row metas (serve/shard_snapshot.h). The scatter/gather router
  /// loads only this manifest — it evaluates the pivot stage and the lazy
  /// pivot phase locally from the embedded strings and block and leaves
  /// every non-pivot candidate to the shard workers, so its memory stays
  /// O(pivots^2), not O(N).
  void SaveRouterManifest(const std::string& path) const;

  /// Restores an index saved by `Save`: a flat store expects S = 1, a
  /// sharded store its own shard count and sizes. Throws
  /// std::runtime_error on malformed input or a store-shape mismatch. The
  /// copying `Load` reads through a read-only shared mapping of the file,
  /// as `Map` does; neither may race a writer to the same path (a
  /// concurrent `Save` truncates the file and can raise `SIGBUS`).
  static Laesa Load(const std::string& path, PrototypeStoreRef prototypes,
                    StringDistancePtr distance);
  static Laesa Load(const std::string& path,
                    const ShardedPrototypeStore& store,
                    StringDistancePtr distance);

  /// Zero-copy form of `Load`: maps the file and points every segment's
  /// table view at its section in place — no table is copied, only the
  /// pivot block is gathered, so startup costs O(pivots^2) beyond the
  /// header and section checks instead of O(pivots x N), and the table
  /// pages are shared across processes through the page cache.
  /// `Load` is the same section walk with the checksum always verified and
  /// the tables then copied out of the mapping, so validation matches;
  /// query results, trajectories and `QueryStats` are bit-identical to the
  /// built or copy-loaded index.
  static Laesa Map(const std::string& path, PrototypeStoreRef prototypes,
                   StringDistancePtr distance);
  static Laesa Map(const std::string& path,
                   const ShardedPrototypeStore& store,
                   StringDistancePtr distance);

  /// True when the pivot table aliases a mapped snapshot.
  bool mapped() const { return pivot_table_.mapped(); }

  /// Storage precision of the pivot table (set at build or restored by the
  /// loaders).
  TablePrecision table_precision() const { return pivot_table_.precision(); }

  // PivotStageSearcher: the batched pivot stage of the query engine.
  std::size_t pivot_count() const override { return pivots().size(); }
  std::string_view PivotString(std::size_t p) const override {
    return core().View(pivots()[p]);
  }
  const StringDistance& pivot_distance() const override { return *distance_; }
  void ComputePivotRow(std::string_view query, double* row,
                       QueryStats* stats = nullptr) const override;
  using PivotStageSearcher::KNearestWithPivotRow;
  std::vector<NeighborResult> KNearestWithPivotRow(
      std::string_view query, std::size_t k, const double* row,
      QueryStats* stats, QueryStats* shard_stats) const;

  /// The group form, in groups of up to `kMaxRowQueries` consecutive
  /// queries, each group one pass over every segment's table. With
  /// `shard_stats` non-null (count x shard_count() entries), query b's
  /// evaluations are also accumulated onto its home segments at
  /// [b * shard_count(), (b + 1) * shard_count()).
  void KNearestWithPivotRows(const PivotRowQuery* group, std::size_t count,
                             std::size_t k,
                             std::vector<NeighborResult>* out) const override;
  void KNearestWithPivotRows(const PivotRowQuery* group, std::size_t count,
                             std::size_t k, std::vector<NeighborResult>* out,
                             QueryStats* shard_stats) const;

  std::size_t num_pivots() const { return pivots().size(); }
  const std::vector<std::size_t>& pivots() const {
    return pivot_table_.pivots().ids();
  }

  /// Distance evaluations spent in preprocessing (pivot selection + table).
  std::uint64_t preprocessing_computations() const {
    return preprocessing_computations_;
  }

 private:
  /// The segments over `stores`, in order, with no pivot table yet: the
  /// shell the builds and `Open` fill.
  Laesa(std::vector<PrototypeStoreRef> stores, StringDistancePtr distance);

  /// Validates `pivot_indices` and builds the table over `stores`.
  Laesa(std::vector<PrototypeStoreRef> stores, StringDistancePtr distance,
        std::vector<std::size_t> pivot_indices, TablePrecision precision);

  /// Restores a snapshot written by `Save` into `shell`: `Map` when `copy`
  /// is false, `Load` when it is true. `who` prefixes the error messages.
  static Laesa Open(const std::string& path, Laesa shell, bool copy,
                    const char* who);

  /// Points every segment at its slice of `pivot_table_`.
  void BindTables();

  /// The shared sweep core (pivot_sweep.h) over the segment list.
  PivotSweep core() const {
    return PivotSweep(segments_, pivot_table_, *distance_);
  }

  /// One store per segment; a flat index may own its store.
  std::vector<PrototypeStoreRef> stores_;
  std::vector<SweepSegment> segments_;
  std::size_t size_ = 0;
  StringDistancePtr distance_;
  /// The pivot table, one slice per segment: segment g's slice holds
  /// d(pivot p, its j-th prototype) at [p * n_g + j], f64 or quantized,
  /// owned (build/Load) or viewing a mapped snapshot (Map). Pivots are
  /// prototypes, so their own bounds come from these slices too.
  PivotTables pivot_table_;
  std::uint64_t preprocessing_computations_ = 0;
};

}  // namespace cned

#endif  // CNED_SEARCH_LAESA_H_
