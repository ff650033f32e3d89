#ifndef CNED_SEARCH_SWEEP_KERNEL_H_
#define CNED_SEARCH_SWEEP_KERNEL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "common/aligned_buffer.h"

namespace cned {

struct ContextualResult;  // core/contextual.h
struct DpWorkspace;       // common/dp_workspace.h
struct QuantTableView;    // search/table_quant.h

/// The shared vectorised elimination core of the LAESA family.
///
/// Every LAESA-shaped sweep in the library — the sweep core
/// (pivot_sweep.h) that `Laesa` runs over its S segments (and through it
/// the batch engine's pivot-stage pipeline) and its per-segment passes in
/// the serve worker's `ShardReplica` — is the same three data-parallel
/// operations over candidate slabs:
///
///   1. tighten a dense bound slab with a visited pivot's table row
///      (`update_lower_dense*`: fused abs-diff + running max), or the
///      slabs of up to `kMaxRowQueries` queries with every row a sweep
///      took, in one pass over the table (`update_lower_rows`),
///   2. eliminate against the incumbent and compact the survivors of a
///      packed slab (`eliminate_and_compact`: threshold filter + in-place
///      index/bound compaction that also tracks the minimal-bound
///      survivor), and
///   3. the length-bound "zeroth pivot" fill (`fill_absdiff_bounds`: the
///      |Δlen| core of the unit-cost edit-distance family's bound).
///
/// Two more entries are the DPs of the distances the paper's sweeps
/// evaluate: the exact d_C of Fig. 3, Algorithm 1's layered DP
/// (`contextual_layers`, core/contextual.h), and the d_C,h of Fig. 4, a
/// DP over the diamond of cells a minimal edit script can pass
/// (`contextual_diamond`, core/contextual_heuristic.h).
///
/// A kernel knows nothing of pivots. The lazy sweep's pivot phase
/// (`VisitPivots`, pivot_sweep.h) is the dense row update over the np x np
/// pivot block. Once no table row is left to apply, the bounds are fixed:
/// the sweep core applies the rows it took to the dense slab and switches
/// to the survivor stream (`SurvivorStream`, below), ids counting-sorted
/// into bound buckets over the dense bound slab, visited in (bound, id)
/// order. The serve worker's row sweep compacts instead.
///
/// This header defines those operations once as a dispatch table of
/// function pointers with scalar and AVX2 implementations. The variant is
/// chosen at startup by runtime CPU detection (the binary stays portable —
/// only the AVX2 translation unit is compiled with its target extension)
/// and can be forced for ablations and CI via the
/// `CNED_SWEEP_KERNEL` environment variable or `SetActiveSweepKernels`.
///
/// Bit-identity contract: every implementation computes exactly the scalar
/// reference semantics documented per entry below. All arithmetic involved
/// is exact in IEEE-754 double precision — |d - row| is one correctly
/// rounded subtraction plus sign clearing, and comparisons and max are
/// exact — so neighbours, distances AND QueryStats are bit-identical across kernels,
/// which the differential tests and `micro_sweep_kernel` enforce.
///
/// Layout contract: candidate ids are 32-bit and < 2^31 (so a pivot's
/// ordinal fits a signed 32-bit int, and 0xFFFFFFFF is never an id); the
/// packed `idx` slice handed to a compaction kernel is strictly ascending
/// (true by construction: slices start in id order and compaction is
/// stable), which is what lets the vector implementations resolve
/// min-bound ties by smallest id instead of smallest scan position. Slabs
/// should come from `SweepScratch` (64-byte aligned); the kernels use
/// unaligned loads so mid-slab shard segments are also fine.

/// The id contract above as a size: an index spans at most 2^31 candidates.
/// `PivotIds` (search/pivot_sweep.h), which every index build, every
/// snapshot loader and the serve router go through, rejects a larger n.
constexpr std::size_t kMaxSweepIds = std::size_t{1} << 31;

/// Packed d_C,h DP cells (`contextual_diamond`): (edit distance << 32) |
/// substitutions. Adding two cells adds both components, and comparing two
/// cells as integers orders them lexicographically by (distance,
/// substitutions).
constexpr std::uint64_t kPackedIndel = std::uint64_t{1} << 32;  // d + 1
constexpr std::uint64_t kPackedSubst = kPackedIndel | 1;  // d + 1, S + 1
/// A cell outside the diamond: larger than any cell inside, and far enough
/// below 2^63 that the steps of a whole table (m + n < 2^30 of them) added
/// to it neither wrap nor turn it negative as a signed lane.
constexpr std::uint64_t kPackedOutside = std::uint64_t{1} << 62;

/// The most dense bound slabs one `update_lower_rows` pass tightens: a
/// group of queries shares each table element it loads.
constexpr std::size_t kMaxRowQueries = 4;

/// "No candidate": the sentinel `next` value.
constexpr std::size_t kSweepNone = static_cast<std::size_t>(-1);

/// Outcome of one eliminate-and-compact pass over a packed candidate slice,
/// and of the serve worker's begin and step passes over its shard
/// (serve/replica.h), which the router merges with `FoldSegmentMinima`
/// (pivot_sweep.h).
struct SweepCompactResult {
  /// Survivors now packed in [0, live) of the idx/lower slice.
  std::size_t live = 0;
  /// Surviving candidate with the minimal finite lower bound (first in
  /// packed order among ties, i.e. the smallest id), or kSweepNone.
  std::size_t next = kSweepNone;
  double next_key = std::numeric_limits<double>::infinity();
};

/// The survivor stream's bucket map (`SurvivorStream`, below): survivors,
/// the bounds b < seed_bound, go to key(b) = min(top, floor(b * scale))
/// with top = buckets - 1; every other bound goes to `buckets`. The key is
/// monotone in b under IEEE rounding.
struct StreamBucketMap {
  double seed_bound = 0.0;
  double scale = 0.0;
  double top = 0.0;
  std::uint32_t buckets = 1;

  std::uint32_t Key(double b) const {
    const double x = b * scale;
    const double c = x < top ? x : top;  // NaN and +inf go to top
    // A mask, not a branch: survivors and the rest interleave at random.
    const std::uint32_t keep = 0u - static_cast<std::uint32_t>(b < seed_bound);
    return (static_cast<std::uint32_t>(c) & keep) | (buckets & ~keep);
  }
};

/// One kernel variant: a named table of the sweep's data-parallel cores.
/// All entries are hot-loop functions — no allocation, no exceptions.
struct SweepKernels {
  /// "scalar" or "avx2" — the CNED_SWEEP_KERNEL names.
  const char* name;

  /// Dense row application: lower[i] = max(lower[i], |d - row[i]|) for i in
  /// [0, n), where max keeps lower[i] on ties (the scalar `if (g > lb)`).
  /// Every sweep applies its pivot rows to its dense bound slab with it:
  /// all of them for the row sweeps, the ones its pivot phase visited for
  /// the lazy sweep. The pivot phase tightens the pivots' own bounds with
  /// it too, over the np-wide pivot block.
  void (*update_lower_dense)(double d, const double* row, double* lower,
                             std::size_t n);

  /// --- Quantized row application (see search/table_quant.h). -----------
  ///
  /// Same dense tightening over rows stored in a narrow element
  /// type. Each row carries decode metadata (QuantRowMeta): a row gap for
  /// every narrow precision, plus an affine scale/offset for u8. The
  /// shared reference semantics — identical op-for-op in every variant,
  /// never contracted into FMA (the library builds with -ffp-contract=off):
  ///
  ///   v    = decode(row[i])            // exact widen; u8: see below
  ///   diff = v - d                     // one rounded subtraction
  ///   g    = diff > (-diff) - gap ? diff : (-diff) - gap
  ///   lower = g > lower ? g : lower    // same tie handling as above
  ///
  /// decode(): f32 is a widening cast (exact); f16 is the bit-shift float
  /// reconstruction in HalfToDouble (exact); u8 computes d' = d - offset
  /// ONCE per call and per lane v' = double(code) * scale (one rounded
  /// multiply), with diff = v' - d'. Because v decodes to a value <= the
  /// exact table entry t and gap >= t - v (both enforced by the build-time
  /// encoder with this same arithmetic), g is an admissible lower bound of
  /// |d - t| in every lane.
  void (*update_lower_dense_f32)(double d, const float* row, double gap,
                                 double* lower, std::size_t n);
  void (*update_lower_dense_f16)(double d, const std::uint16_t* row,
                                 double gap, double* lower, std::size_t n);
  void (*update_lower_dense_u8)(double d, const std::uint8_t* row,
                                double scale, double offset, double gap,
                                double* lower, std::size_t n);

  /// Blocked row application for a group of queries: for each slab
  /// lower[b], b < `queries` <= kMaxRowQueries, of n entries, and each row
  /// r < `rows` in order, the precision's dense update above with row
  /// ranks[r] of the n-wide `table` and d = d[r * queries + b]. Per lane
  /// the rows apply in order with the per-row entries' arithmetic, so the
  /// result is bit-identical to rows x queries per-row calls at every
  /// precision; zero queries touch nothing. Every sweep applies the rows
  /// it took with it: the row sweep for a group of queries, the lazy
  /// sweep and the serve worker for one. The scalar entry is that loop over the scalar per-row
  /// bodies, the reference. The AVX2 entry walks the candidates in blocks
  /// whose bounds stay in registers across all rows, and loads and
  /// decodes each table element once for all the queries.
  void (*update_lower_rows)(const QuantTableView& table,
                            const std::size_t* ranks, std::size_t rows,
                            const double* d, std::size_t queries,
                            double* const* lower, std::size_t n);

  /// The |Δlen| zeroth-pivot fill: out[i] = |x_len - y_lens[i]| as a
  /// double, over a store's packed 32-bit length array. This is the
  /// unit-cost edit-distance length bound; the normalised distances derive
  /// their closed forms from it per element (scalar, in their own
  /// overrides).
  void (*fill_absdiff_bounds)(std::size_t x_len, const std::uint32_t* y_lens,
                              std::size_t n, double* out);

  /// Eliminate + compact. Keeps idx[r] iff
  ///   idx[r] != skip  &&  !(lower[r] >= bound)
  /// compacting idx/lower in place (stable) and tracking the minimal-bound
  /// survivor. `skip` is the just-visited candidate (pass a value absent
  /// from the slice, e.g. 0xFFFFFFFF, for "none"). Its one caller is the
  /// serve worker's row sweep, which seeds and steps with it; the
  /// in-process sweeps visit their non-pivots through the survivor stream
  /// instead.
  SweepCompactResult (*eliminate_and_compact)(std::uint32_t* idx,
                                              double* lower, std::size_t live,
                                              std::uint32_t skip,
                                              double bound);

  /// The survivor stream's bucket keys: keys[i] = map.Key(lower[i]) for i
  /// in [0, n). Bounds are non-negative (+inf allowed); the survivor
  /// stream's counting and scatter passes consume the keys a chunk at a
  /// time.
  void (*stream_keys)(const StreamBucketMap& map, const double* lower,
                      std::size_t n, std::uint32_t* keys);

  /// The d_C,h DP (core/contextual_heuristic.cc): the min-plus DP over
  /// packed cells (kPackedIndel per insertion or deletion, kPackedSubst per
  /// substitution, 0 per match) from (0, 0) to (|x|, |y|), restricted to
  /// the diamond of diagonals -(e + n - m) / 2 <= i - j <= (e + m - n) / 2
  /// (m = |x|, n = |y|); cells outside it read as kPackedOutside. Returns
  /// the cell at (m, n), which is (d_E << 32) | (fewest substitutions among
  /// minimal scripts) for every e >= d_E(x, y); e = d_E gives the narrowest
  /// diamond, d_E + 1 diagonals wide. Requires m + n < 2^30. The rolling
  /// lines and padded copies of the strings come from `ws`. The scalar
  /// entry fills the diamond row by row. The AVX2 entry fills it one
  /// anti-diagonal at a time, whose cells are independent lanes, and may
  /// also fill the diagonal just outside each edge (any superset of the
  /// diamond gives the same value); a diamond of one four-lane block it
  /// hands to the row form, which is faster there. Integer-only
  /// arithmetic, so every variant returns the same bits.
  std::uint64_t (*contextual_diamond)(std::string_view x, std::string_view y,
                                      std::size_t e, DpWorkspace& ws);

  /// The exact d_C DP, the paper's Algorithm 1, for a pair the d_E gate
  /// let through (core/contextual.cc): layer k of cell (i, j) is the most
  /// insertions over internal paths of edit length k from (0, 0) to (i, j)
  /// (a match stays on its layer; a substitution, deletion or insertion
  /// reads the layer below, the insertion adding one), and a
  /// `ContextualLayerScan` reads the final cell's layers. `e` is the gate's
  /// value (`ContextualEditLengthGate`). Adds the cells it writes to
  /// `ws.contextual_cells`: (i, j, k) cells for the scalar entry, (i, j,
  /// register) cells for the AVX2 entry. The scalar entry fills one layer
  /// at a time over the band |i - j| <= k and stops once the scan closes.
  /// The AVX2 entry holds a cell's layers in the int8 lanes of vectors of
  /// 32, chained when it needs more than 32 (up to `ContextualLastLayer`),
  /// so the whole DP is one pass over the cells, two rows at a time: on a
  /// match V = max(D, S(max(U, L + 1))), otherwise V = S(max(D, U,
  /// L + 1)), with D, U and L the diagonal, up and left cells and S one
  /// layer up, -128 entering layer 0. A value is a path iff it is >= 0,
  /// which holds while |y| <= 127. It hands to the scalar entry every
  /// longer y, every layer range past four vectors, and every pair whose
  /// bands hold fewer cells than its registers do (near-duplicates, whose
  /// scan closes after a few layers). Every variant returns the same
  /// result bit for bit.
  ContextualResult (*contextual_layers)(std::string_view x, std::string_view y,
                                        double bound, std::size_t e,
                                        DpWorkspace& ws);
};

/// The portable reference implementation (always available). Every other
/// variant is differentially tested against it.
const SweepKernels& ScalarSweepKernels();

/// All variants compiled into this binary AND supported by the running
/// CPU, scalar first, fastest last. At least one entry (scalar).
std::vector<const SweepKernels*> AvailableSweepKernels();

/// The variant the sweeps use. Resolved once on first use: the
/// CNED_SWEEP_KERNEL environment variable ("scalar", "avx2", "auto") when
/// set and available — an unavailable forced name warns on stderr and
/// falls back to scalar — otherwise the fastest available variant.
/// Thread-safe.
const SweepKernels& ActiveSweepKernels();

/// Forces a variant by name ("auto" re-selects the fastest available).
/// Returns false (and changes nothing) for an unknown or unsupported name.
/// Intended for startup/ablation use (tests, the fig3/fig4 --kernel flag),
/// not for concurrent flipping mid-query.
bool SetActiveSweepKernels(std::string_view name);

/// Thread-local 64-byte-aligned candidate slabs shared by the sweeps.
/// Reused across queries (zero steady-state allocations) and owned per
/// thread, so batched queries running under ParallelFor never share state.
/// A sweep over a group of queries holds one dense bound slab per query;
/// a one-query sweep sizes only the first.
struct SweepScratch {
  AlignedBuffer<std::uint32_t> idx;
  AlignedBuffer<double> lower[kMaxRowQueries];
};
SweepScratch& TlsSweepScratch();

/// --- Static-bound visit order: the survivor stream. ---------------------
///
/// Once every pivot row a sweep will apply has been applied — every row
/// for the row-consuming sweeps, the rows its pivot phase visited for the
/// lazy sweep — the lower bounds never change again; only the
/// k-th incumbent moves, and only downwards. The classic adaptive loop
/// (visit the minimal-bound survivor, eliminate and compact every survivor
/// against the new incumbent, pick the next minimum) therefore visits
/// candidates in ascending (lower, id) order: after each pass the survivors
/// are exactly the unvisited candidates with lower < bound(), so their
/// minimum is the smallest unvisited key. It stops at the first key with
/// lower >= bound(), because every later key is then eliminated too (keys
/// only rise and bound() only falls).
///
/// `SurvivorStream` yields exactly that sequence without ordering every
/// survivor. The bounds stay in the dense slab, indexed by global id; only
/// the ids move. A monotone bucket map over [0, seed bound) sends each
/// survivor to one of a few thousand buckets (`StreamBucketMap`), a
/// counting sort writes the ids into the `idx` slab bucket by bucket, and
/// a bucket is sorted by (lower, id) only when the stream reaches it. Most
/// survivors lie in buckets past the stop, which are never sorted.
///
/// One stream serves S segments, in four steps:
///   1. `Count` per segment: one histogram row per segment, so segments
///      may count in parallel;
///   2. `Place` once: counts become scatter offsets in (bucket, segment)
///      order;
///   3. `Scatter` per segment: the segment's ids in id order, so every
///      bucket holds ascending global ids;
///   4. `VisitInBoundOrder`: buckets in key order, each sorted on arrival.
/// No memory beyond the two slabs and the histogram (at most 4096
/// counters).
///
/// Contract: the survivors are the slab entries with lower < the seed
/// bound, so a caller drops an entry (the pivots, tombstoned slots) by
/// setting its bound to +inf. Bounds are non-negative.

class SurvivorStream {
 public:
  /// The bucket map for survivors of an n-entry slab split into `segments`
  /// segments, all below `seed_bound`. `hist` holds the counters: it is
  /// resized and zeroed here, and must outlive the stream. A seed bound of
  /// +inf, 0 or one so small that the scale overflows maps every survivor
  /// to bucket 0, which is then sorted in O(m log m) like any other.
  SurvivorStream(double seed_bound, std::size_t n, std::size_t segments,
                 std::vector<std::uint32_t>& hist);

  /// The bucket map: `buckets` ordered buckets over [0, seed bound), and
  /// `buckets` itself as the key of every other bound.
  const StreamBucketMap& map() const { return map_; }

  /// Step 1: counts segment g's n bounds lower[0, n).
  void Count(std::size_t g, const double* lower, std::size_t n);

  /// Step 2, after every segment was counted: turns the counts into
  /// scatter offsets. Returns the number of survivors.
  std::size_t Place();

  /// Step 3: writes segment g's ids base + j, j in [0, n), into the global
  /// `idx` slab (N entries), survivors bucket by bucket in [0, survivors),
  /// the others after them. Reads the same bounds `Count` counted.
  void Scatter(std::size_t g, const double* lower, std::size_t n,
               std::size_t base, std::uint32_t* idx);

  /// Step 4: calls visit(id) for the survivors in ascending (lower, id)
  /// order while lower[id] < bound(), reading bound() before each visit.
  /// `lower` is the dense slab indexed by global id; `visit` may lower
  /// bound() but must not write the slabs. Consumes the histogram.
  template <typename Bound, typename Visit>
  void VisitInBoundOrder(std::uint32_t* idx, const double* lower,
                         Bound&& bound, Visit&& visit);

 private:
  std::uint32_t* Row(std::size_t g) {
    return hist_ + g * (map_.buckets + 1);
  }

  StreamBucketMap map_;
  std::size_t segments_;
  std::uint32_t* hist_;
};

template <typename Bound, typename Visit>
void SurvivorStream::VisitInBoundOrder(std::uint32_t* idx, const double* lower,
                                       Bound&& bound, Visit&& visit) {
  // After `Scatter`, the last segment's row holds each bucket's end.
  const std::uint32_t* ends = Row(segments_ - 1);
  const auto before = [lower](std::uint32_t a, std::uint32_t b) {
    return lower[a] < lower[b] || (lower[a] == lower[b] && a < b);
  };
  std::uint32_t r = 0;
  for (std::uint32_t b = 0; b < map_.buckets; ++b) {
    const std::uint32_t end = ends[b];
    std::sort(idx + r, idx + end, before);
    for (; r < end; ++r) {
      const std::uint32_t id = idx[r];
      if (!(lower[id] < bound())) return;
      visit(static_cast<std::size_t>(id));
    }
  }
}

/// --- Tombstone bitmaps (the mutable tier, search/mutable_laesa.h). -------
///
/// Deletes are represented as a packed bitmap over candidate slots (bit i =
/// word i/64, bit i%64). Masking is a bound: `ApplyTombstoneMask` writes
/// +inf into the dense lower-bound slab for every set bit. A compaction
/// pass and the pivot phase drop such a slot — their predicate `lower >=
/// bound` is inclusive, so +inf falls to every bound including +inf itself
/// — and the survivor stream counts only bounds below its seed bound;
/// every row update is a
/// running max, so +inf can never be lowered back at any table_precision.
/// A deleted prototype is therefore dropped before it can be visited,
/// evaluated, or counted.
/// Pure integer/bit work — identical behaviour under every kernel variant.

inline std::size_t TombstoneWords(std::size_t n) { return (n + 63) / 64; }

inline bool TestTombstone(const std::uint64_t* bits, std::size_t i) {
  return (bits[i >> 6] >> (i & 63)) & 1u;
}

inline void SetTombstone(std::uint64_t* bits, std::size_t i) {
  bits[i >> 6] |= std::uint64_t{1} << (i & 63);
}

/// lower[i] = +inf for every set bit in [0, n); other slots untouched.
void ApplyTombstoneMask(const std::uint64_t* bits, std::size_t n,
                        double* lower);

}  // namespace cned

#endif  // CNED_SEARCH_SWEEP_KERNEL_H_
