#ifndef CNED_SEARCH_PIVOT_SWEEP_H_
#define CNED_SEARCH_PIVOT_SWEEP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/mapped_file.h"
#include "datasets/prototype_store.h"
#include "distances/distance.h"
#include "search/nn_searcher.h"
#include "search/pivot_stage.h"
#include "search/sweep_kernel.h"
#include "search/table_quant.h"

namespace cned {

/// The one LAESA sweep core: `Laesa` runs it over its S segments (one for
/// a flat store, one per shard of a sharded store), and the serve worker's
/// `ShardReplica` runs its per-segment passes for its own shard.
///
/// The candidate space [0, N) is a table of contiguous segments in base
/// order, and segment g owns [base, base + size) of the slabs. A pivot is
/// a row of the distance table, not a candidate: the sweep lifts the
/// pivots out of the dense bound slab. The lazy sweep's pivot phase reads
/// only the pivots' bounds and the np x np pivot block (`PivotBlock`), so
/// it is one dense body over np entries (`VisitPivots`), which the
/// router's `SweepMachine` (serve/sweep_machine.h) runs too. Both sweeps
/// then apply the rows they took, all of them or the visited ones
/// (`PivotRow`), to the dense bound slab, and visit the non-pivots through
/// the survivor stream (sweep_kernel.h). Every visit decision (incumbents,
/// elimination bound, next candidate) is global; every kernel pass touches
/// one segment only. The survivor stream counts each segment into its own
/// histogram row and scatters the segments in base order, so it orders
/// ties by global id, and results and `QueryStats` do not depend on the
/// segment count or the passes' thread schedule.

/// The visit rule of every LAESA sweep: the k incumbents, the bound a
/// visit's evaluation may abandon at, and the cost counters. `PivotSweep`
/// and the router's `SweepMachine` (serve/sweep_machine.h) hold one each,
/// so the in-process and the distributed sweep decide alike.
///
/// Elimination and the incumbent update share one semantic: a candidate
/// that cannot *strictly* improve on the k-th incumbent is dead. That is
/// what lets the incumbent itself be the `DistanceBounded` bound — the
/// kernel may abandon any evaluation that provably reaches it, because such
/// a value could at most tie.
class SweepIncumbents {
 public:
  explicit SweepIncumbents(std::size_t k) : k_(k) { best_.reserve(k + 1); }

  /// The k-th incumbent distance; +inf while fewer than k are held.
  double Kth() const {
    return best_.size() < k_ ? std::numeric_limits<double>::infinity()
                             : best_.back().distance;
  }

  /// The bound a visit's evaluation may abandon at. Pivot distances stay
  /// exact: the full value tightens a whole row of lower bounds (both
  /// sides of |d - row[i]|), which an abandoned evaluation cannot. Other
  /// distances only ever update the incumbents, so the k-th incumbent
  /// bounds their kernel — the trajectory (and computation count) is the
  /// unbounded sweep's, only the per-evaluation DP work shrinks.
  double Cap(bool is_pivot) const {
    return is_pivot ? std::numeric_limits<double>::infinity() : Kth();
  }

  /// Counts one visit evaluation, `d = d(query, id)` bounded by `cap`
  /// (from `Cap`): abandoned when d >= cap, otherwise admitted on a strict
  /// improvement. Returns true when abandoned.
  bool Absorb(std::size_t id, double d, double cap, bool is_pivot) {
    ++stats_.distance_computations;
    if (is_pivot) ++stats_.pivot_computations;
    if (d >= cap) {
      ++stats_.bounded_abandons;
      return true;
    }
    Offer({id, d});
    return false;
  }

  /// Admits `hit`, an evaluation counted elsewhere, on a strict
  /// improvement.
  void Offer(const NeighborResult& hit) { InsertNeighborTopK(best_, k_, hit); }

  /// Seeds the incumbents from an already-paid pivot row, row[p] =
  /// d(query, pivots[p]), skipping every p with `skip(p)`. The row is paid
  /// for, so ties admit the lower id.
  template <typename Skip>
  void SeedRow(const std::vector<std::size_t>& pivots, const double* row,
               Skip skip) {
    for (std::size_t p = 0; p < pivots.size(); ++p) {
      if (skip(p)) continue;
      InsertNeighborTopK(best_, k_, {pivots[p], row[p]}, /*admit_ties=*/true);
    }
  }

  /// The counters so far: visit evaluations, pivot visits, abandons.
  QueryStats& stats() { return stats_; }

  /// Moves the incumbents out, in (distance, id) order.
  std::vector<NeighborResult> Take() { return std::move(best_); }

 private:
  std::size_t k_;
  std::vector<NeighborResult> best_;
  QueryStats stats_;
};

/// Folds one segment's stream head into `acc`, segments in base order:
/// the minima merge with strict '<', so the first occurrence — the lowest
/// global id among equal keys — wins, as in one packed scan over [0, N).
/// Start from a default `acc`.
inline void FoldSegmentMinima(const SweepCompactResult& seg,
                              SweepCompactResult* acc) {
  if (seg.next != kSweepNone && seg.next_key < acc->next_key) {
    acc->next = seg.next;
    acc->next_key = seg.next_key;
  }
}

/// Global ids [base, base + store->size()): their prototypes and their
/// slice of the pivot table (rank-major, decoded with the global row meta).
struct SweepSegment {
  std::size_t base = 0;
  const PrototypeStore* store = nullptr;
  QuantTableView table;
};

/// The pivot ids of an index, the base prototypes of LAESA (Micó, Oncina
/// & Vidal, 1994): row p of the pivot table belongs to `ids()[p]`, pivot p.
/// They are also held sorted by id with their ordinals: column j of the
/// pivot block is pivot `ordinals()[j]`, id `sorted()[j]`. Nothing here
/// scales with the number of candidates.
class PivotIds {
 public:
  PivotIds() = default;

  /// Throws std::runtime_error, prefixed with `who`, on the problems
  /// `Invalid` names.
  PivotIds(std::vector<std::size_t> ids, std::size_t n,
           const std::string& who);

  /// Why `ids` cannot be pivots over [0, n): n above `kMaxSweepIds`, an id
  /// >= n or an id listed twice. Empty when they can.
  static std::string Invalid(const std::vector<std::size_t>& ids,
                             std::size_t n);

  /// The ids in ordinal order.
  const std::vector<std::size_t>& ids() const { return ids_; }
  std::size_t size() const { return ids_.size(); }

  /// The ids in ascending order.
  const std::uint32_t* sorted() const { return sorted_.data(); }

  /// The ordinal of `sorted()[j]`.
  const std::int32_t* ordinals() const { return ordinals_.data(); }

 private:
  std::vector<std::size_t> ids_;
  std::vector<std::uint32_t> sorted_;
  std::vector<std::int32_t> ordinals_;
};

/// A pivot row a sweep takes: the pivot's ordinal and d(query, pivot).
struct PivotRow {
  std::size_t rank;
  double d;
};

/// Applies `rows` rows of segment `seg`'s table to `queries` (at most
/// `kMaxRowQueries`) dense bound slabs indexed by local slot, in one pass
/// over the table (`update_lower_rows`): row ranks[r] with d[r * queries +
/// b] to lower[b]. Every sweep then counts its slabs into its survivor
/// stream: the in-process sweeps over their segments, the serve worker
/// over its one.
void ApplyPivotRows(const SweepSegment& seg, const std::size_t* ranks,
                    std::size_t rows, const double* d, std::size_t queries,
                    double* const* lower);

/// The pivot block: the table entries between pivots, T[p][sorted()[j]] at
/// [p * np + j], rank-major with its np columns in id order. It is all of
/// the table the lazy sweep's pivot phase reads (`VisitPivots`): 8 KB at
/// f64 for 32 pivots. The codes are copied out of the table, and a block
/// row decodes with its table row's meta, so it reads the bits the table
/// row holds. Copies share the storage.
class PivotBlock {
 public:
  PivotBlock() = default;

  /// Gathers the block out of `views` (at least one), one per segment of
  /// `sizes[g]` ids, the segments covering the pivot ids in base order.
  /// The block shares their row metas.
  PivotBlock(const PivotIds& pivots, const std::vector<std::size_t>& sizes,
             const std::vector<QuantTableView>& views);

  /// Reads what `Write` writes for `np` pivots at `precision`, copied out:
  /// the row metas QuantRowMeta[np] unless f64, then the block
  /// elem[np * np]. The reader checks both extents against the file before
  /// anything is copied, and throws std::runtime_error past its end.
  static PivotBlock Read(MappedReader& reader, std::size_t np,
                         TablePrecision precision);

  /// Writes the sections `Read` walks.
  void Write(BinaryWriter& writer, std::size_t np) const;

  /// The block as an np-wide table (`QuantUpdateLowerDense`).
  const QuantTableView& view() const { return view_; }

 private:
  struct Storage {
    std::vector<unsigned char> bytes;  // the entries, as a mapping holds them
    std::vector<QuantRowMeta> meta;    // a read block's own metas
  };
  /// Storage for np * np entries of `width` bytes.
  static std::shared_ptr<Storage> NewStorage(std::size_t np,
                                             std::size_t width);
  /// Views `storage` at `precision`, decoded with `rows`.
  void Bind(TablePrecision precision, std::shared_ptr<const Storage> storage,
            const QuantRowMeta* rows);

  QuantTableView view_;
  std::shared_ptr<const Storage> storage_;
};

/// The column of the next pivot to visit: the strict-'<' (bound, id)
/// minimum over the columns with bound < `kth`, or kSweepNone. The columns
/// ascend by id, so the lowest id wins a tie.
std::size_t NextPivotColumn(const double* bounds, std::size_t np, double kth);

/// The lazy sweep's pivot phase: visits pivots while any survive (Micó,
/// Oncina & Vidal, 1994), one dense pass over np entries per visit. The
/// in-process sweep and the router's `SweepMachine` both run it.
///
/// `bounds` holds the np pivots' bounds in column order (`PivotIds`): their
/// length bounds, with the tombstoned pivots at +inf. The first visit is
/// pivot 0 unless `tombstoned`, else the minimal-bound live pivot. A visit
/// calls visit(id, rank), which evaluates the pivot exactly, absorbs it
/// into `inc` and returns the distance d; then the block's row `rank`
/// tightens every bound, the visited pivot goes to +inf, and the next
/// pivot is `NextPivotColumn` below the k-th incumbent. The visited rows
/// are appended to `rows` in visit order.
template <typename Visit>
void VisitPivots(const PivotIds& pivots, const QuantTableView& block,
                 bool tombstoned, const SweepIncumbents& inc, double* bounds,
                 Visit&& visit, std::vector<PivotRow>* rows) {
  const SweepKernels& kern = ActiveSweepKernels();
  const std::size_t np = pivots.size();
  const std::int32_t* ordinals = pivots.ordinals();
  std::size_t j =
      tombstoned
          ? NextPivotColumn(bounds, np, inc.Kth())
          : static_cast<std::size_t>(std::find(ordinals, ordinals + np, 0) -
                                     ordinals);
  while (j != kSweepNone) {
    const auto rank = static_cast<std::size_t>(ordinals[j]);
    const double d = visit(static_cast<std::size_t>(pivots.sorted()[j]), rank);
    rows->push_back({rank, d});
    QuantUpdateLowerDense(kern, block, rank, np, d, bounds);
    bounds[j] = std::numeric_limits<double>::infinity();
    j = NextPivotColumn(bounds, np, inc.Kth());
  }
}

class PivotTables;

/// The sweeps over one index's segments. It borrows the segment list and
/// the pivot table, so the index builds one per call and it never outlives
/// the table it views.
class PivotSweep {
 public:
  PivotSweep(const std::vector<SweepSegment>& segments,
             const PivotTables& table, const StringDistance& distance);

  /// The k nearest of each query of `group`, into out[b]: a candidate
  /// dies once its lower bound reaches the query's k-th incumbent. A
  /// query with a null `row` is the lazy sweep behind Laesa::KNearest,
  /// which chooses the pivot rows it takes by visiting pivots while any
  /// survive; it runs in a group of one. Otherwise it is the row sweep
  /// behind KNearestWithPivotRows (pivot_stage.h): row[p] = d(query, pivot
  /// p) is already paid for, every row is taken and seeds the incumbents.
  /// The row sweep takes up to `kMaxRowQueries` queries and applies the
  /// group's rows in one pass over each segment's table; everything else
  /// (bounds, incumbents, survivor stream, visits) is each query's own, so
  /// every query answers exactly as it would alone. `tombstones` (bitmap
  /// over [0, N), may be null; lazy sweep only, as the row seeds every
  /// pivot) masks slots out before any visit; `segment_stats` (may be
  /// null) receives each evaluation on its home segment, query b's at
  /// [b * S, (b + 1) * S) for S segments. An empty group does nothing.
  /// Throws std::invalid_argument on more than `kMaxRowQueries` queries or
  /// a lazy query in a larger group.
  void Sweep(const PivotRowQuery* group, std::size_t count, std::size_t k,
             std::vector<NeighborResult>* out,
             QueryStats* segment_stats = nullptr,
             const std::uint64_t* tombstones = nullptr) const;

  /// row[p] = d(query, pivot p), exact; counted into `stats` when non-null.
  void ComputePivotRow(std::string_view query, double* row,
                       QueryStats* stats) const;

  /// The segment holding global id `id`.
  std::size_t SegmentOf(std::size_t id) const;

  /// The prototype at global id `id`.
  std::string_view View(std::size_t id) const {
    const SweepSegment& seg = segments_[SegmentOf(id)];
    return seg.store->view(id - seg.base);
  }

  const std::vector<SweepSegment>& segments() const { return segments_; }
  const StringDistance& distance() const { return distance_; }

 private:
  const std::vector<SweepSegment>& segments_;
  const PivotTables& table_;
  const StringDistance& distance_;
  std::size_t size_ = 0;
};

/// The one pivot table of an index: the pivot ids, the storage precision,
/// one rank-major table slice per segment, decoded with the global row
/// meta, and the pivot block gathered from the slices. `Laesa` holds one
/// segment per store, and the serve worker's `ShardReplica` the segment of
/// its own shard.
///
/// The slices are built in memory (`Build`) or read from the tail every
/// table format shares (`Read`): viewed in place in a mapped snapshot, or
/// copied out of it. The storage behind the views, owned buffers or the
/// mapping, is shared and never written after it is set, so copies of a
/// holder view the same bytes.
class PivotTables {
 public:
  /// Owned slices: exact f64 rows, or narrow codes plus one meta per
  /// global row. One buffer per segment.
  struct Buffers {
    std::vector<std::vector<double>> f64;           // empty unless f64
    std::vector<std::vector<unsigned char>> codes;  // empty for f64
    std::vector<QuantRowMeta> meta;                 // empty for f64
  };

  PivotTables() = default;

  /// `pivots` over [0, n) (see `PivotIds`), with no slice yet.
  PivotTables(std::vector<std::size_t> pivots, std::size_t n,
              const std::string& who);

  /// Computes the slices of `segments` (their `table` views are not read)
  /// at `precision`, and gathers the block. One meta per GLOBAL row, so
  /// one-segment and S-segment builds of the same data hold the same
  /// codes.
  void Build(const std::vector<SweepSegment>& segments,
             const StringDistance& distance, TablePrecision precision);

  /// Takes `buffers` as the slices of segments holding `sizes[g]`
  /// prototypes each.
  void Own(TablePrecision precision, std::vector<std::size_t> sizes,
           Buffers buffers);

  /// Walks the tail every table format shares: pivot ids u64[np], then
  /// QuantRowMeta[np] unless `precision` is f64, then one table section per
  /// entry of `sizes`. Throws std::runtime_error, prefixed with `who`, on a
  /// pivot count outside [1, n] or pivot ids `PivotIds` rejects; the
  /// reader throws on a truncated section. The slices view the mapping, or
  /// with `copy` are copied into owned buffers and the mapping is let go.
  /// When the segments cover [0, n), as every index's do, the block is
  /// gathered too; a serve worker's slice of one shard among several
  /// holds none.
  static PivotTables Read(MappedReader& reader, std::uint64_t np,
                          std::size_t n, std::vector<std::size_t> sizes,
                          TablePrecision precision, bool copy,
                          const std::string& who);

  /// Writes the tail `Read` walks, for segments [first, last).
  void Write(BinaryWriter& writer, std::size_t first, std::size_t last) const;

  const PivotIds& pivots() const { return pivots_; }
  TablePrecision precision() const { return precision_; }
  QuantTableView view(std::size_t g) const { return views_[g]; }
  const PivotBlock& block() const { return block_; }

  /// True when the slices view a mapped snapshot.
  bool mapped() const { return mapping_ != nullptr; }

 private:
  PivotIds pivots_;
  TablePrecision precision_ = TablePrecision::kF64;
  std::vector<std::size_t> sizes_;    // prototypes per segment
  std::vector<QuantTableView> views_;  // one per segment
  std::shared_ptr<const Buffers> owned_;
  std::shared_ptr<MappedFile> mapping_;
  PivotBlock block_;
};

}  // namespace cned

#endif  // CNED_SEARCH_PIVOT_SWEEP_H_
