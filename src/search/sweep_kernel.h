#ifndef CNED_SEARCH_SWEEP_KERNEL_H_
#define CNED_SEARCH_SWEEP_KERNEL_H_

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
/// (pivot_sweep.h) that `Laesa` and `ShardedLaesa` run over one or S
/// segments (and through them the batch engine's pivot-stage pipeline),
/// its per-segment passes in the serve worker's `ShardReplica`, and
/// `Laesa::RangeSearch` — is the same three data-parallel operations over
/// packed candidate slabs:
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
/// core switches to `VisitInBoundOrder` (below): a heap over the same
/// packed slabs instead of one compaction pass per visit.
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

/// One kernel variant: a named table of the sweep's data-parallel cores.
/// All entries are hot-loop functions — no allocation, no exceptions.
struct SweepKernels {
  /// "scalar", "avx2" or "neon" — the CNED_SWEEP_KERNEL names.
  const char* name;

  /// Dense row application: lower[i] = max(lower[i], |d - row[i]|) for i in
  /// [0, n), where max keeps lower[i] on ties (the scalar `if (g > lb)`).
  /// Used by the row-consuming sweeps (every pivot row applied to every
  /// candidate) and RangeSearch's pivot phase.
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
  /// (pivot_sweep.h) visits its static-bound phase with
  /// `VisitInBoundOrder` instead; this entry serves only the serve
  /// worker's `ShardReplica::StepRow`, which reports the compacted
  /// per-shard live count back to the router every round.
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

  /// Dense-to-packed seeding for the row-consuming sweeps: after all pivot
  /// rows tightened the dense bound array, keeps position j in [0, n) iff
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

/// Shared candidate-slab initialisation: idx[i] = i for i in [0, n), and
/// returns the number of ids with pivot_rank[id] >= 0 — the live-pivot
/// count the lazy sweeps start from (duplicate pivots_ entries occupy one
/// candidate slot, hence counting ranks, not table rows).
std::size_t FillIotaCountPivots(std::uint32_t* idx,
                                const std::int32_t* pivot_rank,
                                std::size_t n);

/// --- Static-bound visit order. ------------------------------------------
///
/// Once every pivot row a sweep will apply has been applied — the
/// row-consuming sweeps after `compact_seed`, the lazy sweeps from the pass
/// where the last live pivot died — the lower bounds never change again;
/// only the k-th incumbent moves, and only downwards. The classic adaptive
/// loop (visit the minimal-bound survivor, eliminate and compact every
/// survivor against the new incumbent, pick the next minimum) therefore
/// visits candidates in ascending (lower, id) order: after each pass the
/// survivors are exactly the unvisited candidates with lower < bound(), so
/// their minimum is the smallest unvisited key. It stops at the first key
/// with lower >= bound(), because every later key is then eliminated too
/// (keys only rise and bound() only falls). `VisitInBoundOrder` yields exactly
/// that sequence from a binary min-heap built in place over the packed
/// idx/lower slabs: O(live + visits * log(live)) instead of one O(live)
/// compaction per visit, and no memory beyond the slabs.
///
/// Contract: [0, live) holds the survivors (any order — ties are broken by
/// id, not by position) with non-NaN bounds. `bound()` is read before each
/// pop; `visit(id)` runs the evaluation and may lower it. The slabs'
/// contents are unspecified afterwards.
namespace sweep_heap {

/// (lower, id) lexicographic order: the adaptive loop's min-bound choice
/// with ties going to the smallest id.
inline bool Before(double la, std::uint32_t ia, double lb, std::uint32_t ib) {
  return la < lb || (la == lb && ia < ib);
}

/// Moves the entry at `i` down to its place in the n-entry heap.
inline void SiftDown(std::uint32_t* idx, double* lower, std::size_t n,
                     std::size_t i) {
  const std::uint32_t id = idx[i];
  const double lb = lower[i];
  for (std::size_t c = 2 * i + 1; c < n; c = 2 * i + 1) {
    if (c + 1 < n && Before(lower[c + 1], idx[c + 1], lower[c], idx[c])) ++c;
    if (!Before(lower[c], idx[c], lb, id)) break;
    idx[i] = idx[c];
    lower[i] = lower[c];
    i = c;
  }
  idx[i] = id;
  lower[i] = lb;
}

}  // namespace sweep_heap

template <typename Bound, typename Visit>
void VisitInBoundOrder(std::uint32_t* idx, double* lower, std::size_t live,
                       Bound&& bound, Visit&& visit) {
  for (std::size_t i = live / 2; i-- > 0;) {
    sweep_heap::SiftDown(idx, lower, live, i);
  }
  while (live > 0 && lower[0] < bound()) {
    const std::uint32_t id = idx[0];
    --live;
    idx[0] = idx[live];
    lower[0] = lower[live];
    sweep_heap::SiftDown(idx, lower, live, 0);
    visit(static_cast<std::size_t>(id));
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
