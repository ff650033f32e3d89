#ifndef CNED_SEARCH_PIVOT_SWEEP_H_
#define CNED_SEARCH_PIVOT_SWEEP_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/binary_io.h"
#include "common/mapped_file.h"
#include "datasets/prototype_store.h"
#include "distances/distance.h"
#include "search/nn_searcher.h"
#include "search/sweep_kernel.h"
#include "search/table_quant.h"

namespace cned {

/// The one LAESA sweep core: `Laesa` runs it over its S segments (one for
/// a flat store, one per shard of a sharded store), and the serve worker's
/// `ShardReplica` runs its two per-segment passes for its own shard.
///
/// The candidate space [0, N) is a table of contiguous segments in base
/// order, and segment g owns [base, base + size) of the packed slabs.
/// Every visit decision (incumbents, elimination bound, next pivot) is
/// global; every kernel pass touches one segment only, and per-segment
/// minima merge in segment order with strict '<', so the lowest global id
/// wins ties as in one packed scan over [0, N). The static phase's survivor
/// stream (sweep_kernel.h) counts each segment into its own histogram row
/// and scatters the segments in base order, so it too orders ties by
/// global id. Results and `QueryStats` do not depend on the segment count
/// or the passes' thread schedule.

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

/// Folds one segment's compact result into `acc`, segments in base order:
/// live counts and pivot deaths add up, and the minima merge with strict
/// '<', so the first occurrence — the lowest global id among equal keys —
/// wins, as in one packed scan over [0, N). Start from a default `acc`.
inline void FoldSegmentMinima(const SweepCompactResult& seg,
                              SweepCompactResult* acc) {
  acc->live += seg.live;
  acc->pivots_died += seg.pivots_died;
  if (seg.next != kSweepNone && seg.next_key < acc->next_key) {
    acc->next = seg.next;
    acc->next_key = seg.next_key;
  }
  if (seg.next_pivot != kSweepNone &&
      seg.next_pivot_key < acc->next_pivot_key) {
    acc->next_pivot = seg.next_pivot;
    acc->next_pivot_key = seg.next_pivot_key;
  }
}

/// Global ids [base, base + store->size()): their prototypes and their
/// slice of the pivot table (rank-major, decoded with the global row meta).
struct SweepSegment {
  std::size_t base = 0;
  const PrototypeStore* store = nullptr;
  QuantTableView table;
};

/// The per-segment passes. `pivot_rank` is the global N-entry array;
/// `idx`/`lower` are the segment's own slabs.
///
/// Row seed: length bounds, every pivot row applied dense with the query's
/// pivot distances `row`, then (when `tombstones`, a bitmap over local
/// slots, is non-null) deleted slots forced to +inf. The in-process row
/// sweep then counts the dense slab into its survivor stream; the serve
/// worker packs the surviving non-pivots with one `compact_seed`.
void SeedSegmentBounds(const SweepSegment& seg, const StringDistance& distance,
                       std::size_t query_len, const double* row,
                       std::size_t pivot_count,
                       const std::uint64_t* tombstones, double* lower);

/// Visit pass over the `live` survivors: if `rank` >= 0 the visited
/// candidate was that pivot, at distance `d`, and its row tightens the
/// bounds first; then one flagged eliminate-and-compact against `bound`,
/// dropping `skip`. Rank -1, no skip and an infinite bound drop only +inf
/// (tombstoned) slots. `rank` must lie in [-1, pivot count): it selects a
/// table row unchecked.
SweepCompactResult VisitSegmentPass(const SweepSegment& seg,
                                    const std::int32_t* pivot_rank,
                                    std::int32_t rank, double d,
                                    std::uint32_t skip, double bound,
                                    std::uint32_t* idx, double* lower,
                                    std::size_t live);

/// The sweeps over one index's segments. It borrows the segment list, the
/// pivots and the rank array, so the index builds one per call and it never
/// outlives the table it views.
class PivotSweep {
 public:
  /// `pivots`: distinct global ids; `pivot_rank`: global id -> ordinal or
  /// -1 (see `RankPivots`).
  PivotSweep(const std::vector<SweepSegment>& segments,
             const std::vector<std::size_t>& pivots,
             const std::int32_t* pivot_rank, const StringDistance& distance);

  /// Lazy sweep behind Laesa::KNearest: a candidate dies once its
  /// lower bound reaches the k-th incumbent. `tombstones` (bitmap
  /// over [0, N), may be null) masks slots out before any visit;
  /// `segment_stats` (one entry per segment, may be null) receives each
  /// evaluation on its home segment.
  std::vector<NeighborResult> Lazy(std::string_view query, std::size_t k,
                                   QueryStats* stats,
                                   QueryStats* segment_stats = nullptr,
                                   const std::uint64_t* tombstones =
                                       nullptr) const;

  /// Row sweep behind KNearestWithPivotRow (pivot_stage.h).
  std::vector<NeighborResult> WithRow(std::string_view query, std::size_t k,
                                      const double* row, QueryStats* stats,
                                      QueryStats* segment_stats =
                                          nullptr) const;

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
  const std::vector<std::size_t>& pivots_;
  const std::int32_t* pivot_rank_;
  const StringDistance& distance_;
  std::size_t size_ = 0;
};

/// The N-entry rank array of `pivots` over [0, n): rank[pivots[p]] = p,
/// -1 for non-pivots. Throws std::runtime_error, prefixed with `who`, on
/// n > `kMaxSweepIds` (before allocating), on an id >= n and on a repeated
/// id.
std::vector<std::int32_t> RankPivots(const std::vector<std::size_t>& pivots,
                                     std::size_t n, const std::string& who);

/// The one pivot table of an index: the pivot ids, their N-entry rank
/// array, the storage precision, and one rank-major table slice per
/// segment, decoded with the global row meta. `Laesa` holds one segment
/// per store, and the serve worker's `ShardReplica` the segment of its own
/// shard over the global rank array.
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

  /// `pivots` ranked over [0, n) (see `RankPivots`), with no slice yet.
  PivotTables(std::vector<std::size_t> pivots, std::size_t n,
              const std::string& who);

  /// Computes the slices of `segments` (their `table` views are not read)
  /// at `precision`. One meta per GLOBAL row, so one-segment and S-segment
  /// builds of the same data hold the same codes.
  void Build(const std::vector<SweepSegment>& segments,
             const StringDistance& distance, TablePrecision precision);

  /// Takes `buffers` as the slices of segments holding `sizes[g]`
  /// prototypes each.
  void Own(TablePrecision precision, std::vector<std::size_t> sizes,
           Buffers buffers);

  /// Walks the tail every table format shares: pivot ids u64[np], then
  /// QuantRowMeta[np] unless `precision` is f64, then one table section per
  /// entry of `sizes`. Throws std::runtime_error, prefixed with `who`, on a
  /// pivot count outside [1, n] or a pivot id `RankPivots` rejects; the
  /// reader throws on a truncated section. The slices view the mapping, or
  /// with `copy` are copied into owned buffers and the mapping is let go.
  static PivotTables Read(MappedReader& reader, std::uint64_t np,
                          std::size_t n, std::vector<std::size_t> sizes,
                          TablePrecision precision, bool copy,
                          const std::string& who);

  /// Writes the tail `Read` walks, for segments [first, last).
  void Write(BinaryWriter& writer, std::size_t first, std::size_t last) const;

  const std::vector<std::size_t>& pivots() const { return pivots_; }
  const std::int32_t* rank() const { return rank_.data(); }
  TablePrecision precision() const { return precision_; }
  QuantTableView view(std::size_t g) const { return views_[g]; }

  /// True when the slices view a mapped snapshot.
  bool mapped() const { return mapping_ != nullptr; }

 private:
  std::vector<std::size_t> pivots_;
  std::vector<std::int32_t> rank_;
  TablePrecision precision_ = TablePrecision::kF64;
  std::vector<std::size_t> sizes_;    // prototypes per segment
  std::vector<QuantTableView> views_;  // one per segment
  std::shared_ptr<const Buffers> owned_;
  std::shared_ptr<MappedFile> mapping_;
};

}  // namespace cned

#endif  // CNED_SEARCH_PIVOT_SWEEP_H_
