#ifndef CNED_SEARCH_LAESA_H_
#define CNED_SEARCH_LAESA_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "datasets/prototype_store.h"
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
/// The index is a thin one-segment front over the shared pivot table
/// (`PivotTables`, pivot_sweep.h): the build, the binary `Load` and `Map`
/// all fill that one holder, and queries run the shared sweep core over
/// its single segment; `ShardedLaesa` holds the same table with S
/// segments. Every query entry point is a k-NN search (`KNearest`,
/// `KNearestMasked`, `KNearestWithPivotRow`); the paper's 1-NN search is
/// k = 1, the inherited `Nearest`. A pivot id listed twice (ablation
/// constructor, any `Load` or `Map`) is one candidate slot, ranked by its
/// last entry. The hot path is a flat structure-of-arrays sweep: surviving candidates live in packed
/// index/lower-bound arrays that one pass per visited pivot tightens (a
/// contiguous row of the pivot table), eliminates and compacts; once no
/// pivot survives the bounds are final, and the remaining candidates are
/// visited in bound order from a heap over the same arrays
/// (`VisitInBoundOrder`, sweep_kernel.h). No per-candidate pointer
/// chasing, no per-query slab allocation (thread-local scratch), and the
/// length-difference lower bound of the distance acts as a free "zeroth
/// pivot" over the store's flat length array before any distance is
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
  /// packed once into an owned store. Costs ~(num_pivots+1)·N distance
  /// evaluations.
  ///
  /// `table_precision` selects the pivot table's storage (table_quant.h):
  /// f64 keeps the exact table; f32/f16/u8 quantize each row with
  /// admissible round-down — Nearest/KNearest/RangeSearch RESULTS stay
  /// exact (elimination only prunes less), snapshots and sweep bandwidth
  /// shrink by the element-width ratio. The |Δlen| zeroth-pivot bound is
  /// never quantized.
  Laesa(PrototypeStoreRef prototypes, StringDistancePtr distance,
        std::size_t num_pivots,
        TablePrecision table_precision = DefaultTablePrecision());

  /// Builds with externally chosen pivot indices (ablation hook).
  Laesa(PrototypeStoreRef prototypes, StringDistancePtr distance,
        std::vector<std::size_t> pivot_indices,
        TablePrecision table_precision = DefaultTablePrecision());

  std::size_t size() const override { return store().size(); }

  /// The k nearest prototypes, closest first (extension of the paper's
  /// 1-NN LAESA: elimination prunes against the current k-th best). The
  /// paper's search is k = 1, the inherited `Nearest`.
  std::vector<NeighborResult> KNearest(
      std::string_view query, std::size_t k,
      QueryStats* stats = nullptr) const override;

  /// All prototypes within `radius` of the query, ascending by distance.
  /// Prototypes whose pivot (or length) lower bound exceeds `radius` are
  /// never touched.
  std::vector<NeighborResult> RangeSearch(std::string_view query,
                                          double radius,
                                          QueryStats* stats = nullptr) const;

  /// Tombstone-masked variant for the mutable tier (mutable_laesa.h):
  /// `tombstones` is a packed bitmap over prototype slots (bit i set =
  /// deleted, TombstoneWords(size()) words). Masked slots are eliminated
  /// *inside* the sweep compaction before anything is visited — their
  /// bounds are forced to +inf and one flagged compaction pass drops them
  /// from the packed slab (see sweep_kernel.h) — so a deleted prototype is
  /// never evaluated, never returned and never counted, at every
  /// table_precision and under every kernel variant. A null bitmap is the
  /// plain sweep, bit-identical to KNearest including QueryStats; with
  /// every slot deleted the result is empty.
  std::vector<NeighborResult> KNearestMasked(std::string_view query,
                                             std::size_t k,
                                             const std::uint64_t* tombstones,
                                             QueryStats* stats = nullptr) const;

  /// Serialises the pivot table (not the prototypes): versioned 64-byte
  /// header, then the pivot index and pivot-table sections each 64-byte
  /// aligned (the mmap-ready format of common/binary_io.h). Rebuild with
  /// `Load` or `Map` against the *same* prototype set and distance — so
  /// the O(pivots x N) preprocessing is paid once. Pair with
  /// `PrototypeStore::SaveBinary` for a complete serving snapshot.
  /// The binary `Load` reads through a read-only shared mapping of the
  /// file, as `Map` does. Like `Map`, it must not race a writer to the same
  /// path: a concurrent `Save` truncates the file and can raise `SIGBUS`.
  void Save(const std::string& path) const;
  static Laesa Load(const std::string& path, PrototypeStoreRef prototypes,
                    StringDistancePtr distance);

  /// Zero-copy form of the binary Load: maps the file and points the pivot
  /// table view at its section in place — the O(pivots x N) table is never
  /// copied, so startup is O(N) (pivot-rank bookkeeping) instead of
  /// O(pivots x N), and the table pages are shared across processes through
  /// the page cache. `Load` is the same section walk with the checksum
  /// always verified and the table then copied out of the mapping, so
  /// validation matches; query results, trajectories and `QueryStats` are
  /// bit-identical to the built or copy-loaded index.
  static Laesa Map(const std::string& path, PrototypeStoreRef prototypes,
                   StringDistancePtr distance);

  /// True when the pivot table aliases a mapped snapshot.
  bool mapped() const { return pivot_table_.mapped(); }

  /// Storage precision of the pivot table (set at build or restored by the
  /// loaders).
  TablePrecision table_precision() const { return pivot_table_.precision(); }

  // PivotStageSearcher: the batched pivot stage of the query engine.
  std::size_t pivot_count() const override { return pivots().size(); }
  std::string_view PivotString(std::size_t p) const override {
    return store()[pivots()[p]];
  }
  const StringDistance& pivot_distance() const override { return *distance_; }
  void ComputePivotRow(std::string_view query, double* row,
                       QueryStats* stats = nullptr) const override;
  std::vector<NeighborResult> KNearestWithPivotRow(
      std::string_view query, std::size_t k, const double* row,
      QueryStats* stats = nullptr) const override;

  std::size_t num_pivots() const { return pivots().size(); }
  const std::vector<std::size_t>& pivots() const {
    return pivot_table_.pivots();
  }

  /// The prototype set the index searches over.
  const PrototypeStore& store() const { return prototypes_.get(); }

  /// Distance evaluations spent in preprocessing (pivot selection + table).
  std::uint64_t preprocessing_computations() const {
    return preprocessing_computations_;
  }

 private:
  // Uninitialised shell used by Load.
  struct InternalTag {};
  Laesa(InternalTag, PrototypeStoreRef prototypes, StringDistancePtr distance)
      : prototypes_(prototypes), distance_(std::move(distance)) {}

  /// Restores a binary snapshot: `Map` when `copy` is false, `Load` when
  /// it is true. `who` prefixes the error messages.
  static Laesa Open(const std::string& path, PrototypeStoreRef prototypes,
                    StringDistancePtr distance, bool copy, const char* who);

  /// The shared sweep core (pivot_sweep.h) over this index's single
  /// segment, built per call from the table's view.
  PivotSweep core() const;

  PrototypeStoreRef prototypes_;
  StringDistancePtr distance_;
  /// The pivot table: f64 or quantized, owned (build/Load) or viewing a
  /// mapped snapshot (Map). A pivot listed twice is one candidate slot,
  /// ranked by its last entry.
  PivotTables pivot_table_;
  std::uint64_t preprocessing_computations_ = 0;
};

}  // namespace cned

#endif  // CNED_SEARCH_LAESA_H_
