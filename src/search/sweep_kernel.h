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

/// The shared vectorised elimination core of the LAESA family.
///
/// Every LAESA-shaped sweep in the library — the sweep core
/// (pivot_sweep.h) that `Laesa` runs over its S segments (and through it
/// the batch engine's pivot-stage pipeline) and its per-segment passes in
/// the serve worker's `ShardReplica` — is the same three data-parallel
/// operations over packed candidate slabs:
///
///   1. tighten lower bounds with a visited pivot's table row
///      (`update_lower_*`: fused abs-diff + running max),
///   2. eliminate against the incumbent and compact the survivors
///      (`eliminate_and_compact_flagged` / `compact_seed`: threshold
///      filter + in-place index/bound compaction that also tracks the
///      minimal-bound survivor), and
///   3. the length-bound "zeroth pivot" fill (`fill_absdiff_bounds`: the
///      |Δlen| core of the unit-cost edit-distance family's bound).
///
/// Once no table row is left to apply, the bounds are fixed and the sweep
/// core switches to the survivor stream (`SurvivorStream`, below): ids
/// counting-sorted into bound buckets over the dense bound slab, visited
/// in (bound, id) order, instead of one compaction pass per visit.
///
/// This header defines those operations once as a dispatch table of
/// function pointers with scalar, AVX2 and NEON implementations. The
/// variant is chosen at startup by runtime CPU detection (the binary stays
/// portable — only the per-ISA translation units are compiled with their
/// target extension) and can be forced for ablations and CI via the
/// `CNED_SWEEP_KERNEL` environment variable or `SetActiveSweepKernels`.
///
/// Bit-identity contract: every implementation computes exactly the scalar
/// reference semantics documented per entry below. All arithmetic involved
/// is exact in IEEE-754 double precision — |d - row| is one correctly
/// rounded subtraction plus sign clearing, and comparisons and max are
/// exact — so neighbours, distances AND QueryStats are bit-identical across kernels,
/// which the differential tests and `micro_sweep_kernel` enforce.
///
/// Layout contract: candidate ids are 32-bit and < 2^31 (the SIMD gathers
/// index with signed 32-bit lanes); the packed `idx` slice handed to a
/// compaction kernel is strictly ascending (true by construction: slices
/// start as an iota fill and compaction is stable), which is what lets the
/// vector implementations resolve min-bound ties by smallest id instead of
/// smallest scan position. Slabs should come from `SweepScratch` (64-byte
/// aligned); the kernels use unaligned loads so mid-slab shard segments
/// are also fine.

/// The id contract above as a size: an index spans at most 2^31 candidates.
/// `RankPivots` (search/pivot_sweep.h), which every index build and every
/// snapshot loader goes through, rejects a larger n.
constexpr std::size_t kMaxSweepIds = std::size_t{1} << 31;

/// "No candidate": the sentinel `next`/`next_pivot` value.
constexpr std::size_t kSweepNone = static_cast<std::size_t>(-1);

/// Outcome of one eliminate-and-compact pass over a packed candidate slice.
struct SweepCompactResult {
  /// Survivors now packed in [0, live) of the idx/lower slice.
  std::size_t live = 0;
  /// Dropped candidates (visited or eliminated) whose pivot flag was set.
  /// Only the *_flagged kernel fills this; others leave it 0.
  std::size_t pivots_died = 0;
  /// Surviving candidate with the minimal finite lower bound (first in
  /// packed order among ties, i.e. the smallest id), or kSweepNone.
  std::size_t next = kSweepNone;
  double next_key = std::numeric_limits<double>::infinity();
  /// Same, restricted to surviving pivots (flagged kernel only).
  std::size_t next_pivot = kSweepNone;
  double next_pivot_key = std::numeric_limits<double>::infinity();
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
  /// "scalar", "avx2" or "neon" — the CNED_SWEEP_KERNEL names.
  const char* name;

  /// Dense row application: lower[i] = max(lower[i], |d - row[i]|) for i in
  /// [0, n), where max keeps lower[i] on ties (the scalar `if (g > lb)`).
  /// Used by the row-consuming sweeps (every pivot row applied to every
  /// candidate).
  void (*update_lower_dense)(double d, const double* row, double* lower,
                             std::size_t n);

  /// Packed (gather) row application over the live slice: for r in
  /// [0, live), lower[r] = max(lower[r], |d - row[idx[r] - base]|).
  /// `base` is the segment base so idx's global ids index the
  /// segment-local row; 0 for the flat index. Used by the lazy sweep's
  /// visit pass after each visited pivot.
  void (*update_lower_packed)(double d, const double* row,
                              const std::uint32_t* idx, std::uint32_t base,
                              double* lower, std::size_t live);

  /// --- Quantized row application (see search/table_quant.h). -----------
  ///
  /// Same dense/packed tightening over rows stored in a narrow element
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
  void (*update_lower_packed_f32)(double d, const float* row,
                                  const std::uint32_t* idx, std::uint32_t base,
                                  double gap, double* lower, std::size_t live);
  void (*update_lower_dense_f16)(double d, const std::uint16_t* row,
                                 double gap, double* lower, std::size_t n);
  void (*update_lower_packed_f16)(double d, const std::uint16_t* row,
                                  const std::uint32_t* idx, std::uint32_t base,
                                  double gap, double* lower, std::size_t live);
  void (*update_lower_dense_u8)(double d, const std::uint8_t* row,
                                double scale, double offset, double gap,
                                double* lower, std::size_t n);
  void (*update_lower_packed_u8)(double d, const std::uint8_t* row,
                                 const std::uint32_t* idx, std::uint32_t base,
                                 double scale, double offset, double gap,
                                 double* lower, std::size_t live);

  /// The |Δlen| zeroth-pivot fill: out[i] = |x_len - y_lens[i]| as a
  /// double, over a store's packed 32-bit length array. This is the
  /// unit-cost edit-distance length bound; the normalised distances derive
  /// their closed forms from it per element (scalar, in their own
  /// overrides).
  void (*fill_absdiff_bounds)(std::size_t x_len, const std::uint32_t* y_lens,
                              std::size_t n, double* out);

  /// Eliminate + compact without pivot bookkeeping. Keeps idx[r] iff
  ///   idx[r] != skip  &&  !(lower[r] >= bound)
  /// compacting idx/lower in place (stable) and tracking the minimal-bound
  /// survivor. `skip` is the just-visited candidate (pass a value absent
  /// from the slice, e.g. 0xFFFFFFFF, for "none"). The sweep core
  /// (pivot_sweep.h) visits its static-bound phase with the survivor
  /// stream instead; this entry serves only the serve worker's
  /// `ShardReplica::StepRow`, which reports the compacted per-shard live
  /// count back to the router every round.
  SweepCompactResult (*eliminate_and_compact)(std::uint32_t* idx,
                                              double* lower, std::size_t live,
                                              std::uint32_t skip,
                                              double bound);

  /// Eliminate + compact for the lazy sweeps: the same predicate — keeps
  /// idx[r] iff
  ///   idx[r] != skip  &&  !(lower[r] >= bound)
  /// — plus pivot bookkeeping: pivot_rank is indexed by candidate id
  /// (rank[id] >= 0 marks a pivot; gathered through idx), dropped pivots
  /// are counted into pivots_died, and the minimal-bound surviving pivot is
  /// tracked alongside the overall minimum.
  SweepCompactResult (*eliminate_and_compact_flagged)(
      std::uint32_t* idx, double* lower, const std::int32_t* pivot_rank,
      std::size_t live, std::uint32_t skip, double bound);

  /// Dense-to-packed seeding for the serve worker's row sweep
  /// (`ShardReplica::BeginRow`, whose router step loop reads packed
  /// survivors): after all pivot rows tightened the dense bound array,
  /// keeps position j in [0, n) iff
  ///   rank[j] < 0  &&  !(lower_dense[j] >= bound)
  /// writing candidate id base + j and its bound packed into
  /// idx_out/lower_out, tracking the minimal-bound survivor. `rank` here is
  /// the slice aligned with lower_dense (rank[j] describes candidate
  /// base + j). lower_out may alias lower_dense (the in-place pack the
  /// sweeps use).
  SweepCompactResult (*compact_seed)(const double* lower_dense,
                                     const std::int32_t* rank, std::size_t n,
                                     std::uint32_t base, double bound,
                                     std::uint32_t* idx_out,
                                     double* lower_out);

  /// The survivor stream's bucket keys: keys[i] = map.Key(lower[i]) for i
  /// in [0, n). Bounds are non-negative (+inf allowed); the survivor
  /// stream's counting and scatter passes consume the keys a chunk at a
  /// time.
  void (*stream_keys)(const StreamBucketMap& map, const double* lower,
                      std::size_t n, std::uint32_t* keys);
};

/// The portable reference implementation (always available). Every other
/// variant is differentially tested against it.
const SweepKernels& ScalarSweepKernels();

/// All variants compiled into this binary AND supported by the running
/// CPU, scalar first, fastest last. At least one entry (scalar).
std::vector<const SweepKernels*> AvailableSweepKernels();

/// The variant the sweeps use. Resolved once on first use: the
/// CNED_SWEEP_KERNEL environment variable ("scalar", "avx2", "neon",
/// "auto") when set and available — an unavailable forced name warns on
/// stderr and falls back to scalar — otherwise the fastest available
/// variant. Thread-safe.
const SweepKernels& ActiveSweepKernels();

/// Forces a variant by name ("auto" re-selects the fastest available).
/// Returns false (and changes nothing) for an unknown or unsupported name.
/// Intended for startup/ablation use (tests, the fig3/fig4 --kernel flag),
/// not for concurrent flipping mid-query.
bool SetActiveSweepKernels(std::string_view name);

/// Thread-local 64-byte-aligned candidate slabs shared by the sweeps.
/// Reused across queries (zero steady-state allocations) and owned per
/// thread, so batched queries running under ParallelFor never share state.
struct SweepScratch {
  AlignedBuffer<std::uint32_t> idx;
  AlignedBuffer<double> lower;
};
SweepScratch& TlsSweepScratch();

/// --- Static-bound visit order: the survivor stream. ---------------------
///
/// Once every pivot row a sweep will apply has been applied — the
/// row-consuming sweeps after the seed, the lazy sweeps from the pass where
/// the last live pivot died — the lower bounds never change again; only the
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
///   1. `Count` (or `Unpack` for a packed slab) per segment: one
///      histogram row per segment, so segments may count in parallel;
///   2. `Place` once: counts become scatter offsets in (bucket, segment)
///      order;
///   3. `Scatter` per segment: the segment's ids in id order, so every
///      bucket holds ascending global ids;
///   4. `VisitInBoundOrder`: buckets in key order, each sorted on arrival.
/// No memory beyond the two slabs and the histogram (at most 4096
/// counters).
///
/// Contract: the survivors are the slab entries with lower < the seed
/// bound, so a caller drops an entry (the row sweep's pivots, tombstoned
/// slots) by setting its bound to +inf. Bounds are non-negative.

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

  /// Step 1, dense: counts segment g's n bounds lower[0, n).
  void Count(std::size_t g, const double* lower, std::size_t n);

  /// Step 1, packed: segment g's `live` survivors sit packed in
  /// idx[0, live)/lower[0, live) (global ids, ascending, as a stable
  /// compaction leaves them) over its n slots from global id `base`.
  /// Restores the dense form in place — each bound back to its slot
  /// lower[id - base], +inf in every other slot — and counts it.
  void Unpack(std::size_t g, const std::uint32_t* idx, double* lower,
              std::size_t live, std::size_t n, std::size_t base);

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
/// word i/64, bit i%64). Masking happens *inside* the sweep's compaction:
/// `ApplyTombstoneMask` writes +inf into the dense lower-bound slab for
/// every set bit, and the next `eliminate_and_compact*` pass then drops
/// exactly those slots — the elimination predicate `lower >= bound` is
/// inclusive, so +inf falls to every bound including +inf itself, and every
/// quantized row update is a running max, so +inf can never be lowered back
/// at any table_precision. A deleted prototype is therefore removed from
/// the packed slab before it can be visited, evaluated, or counted.
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
