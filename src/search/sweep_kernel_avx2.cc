// AVX2 implementations of the sweep kernels (see sweep_kernel.h for the
// semantics every variant must reproduce bit for bit).
//
// This translation unit — and only this one — is compiled with -mavx2
// (CMake's CNED_SIMD option); the rest of the library stays portable and
// the variant is picked at runtime via CPUID (common/cpu_features.h).
//
// Vectorisation notes, all in service of the bit-identity contract:
//
//  * |d - row| is _mm256_sub_pd + clearing the sign bit — exactly the
//    scalar std::abs(d - row) (one correctly rounded subtraction; abs is
//    exact). No FMA is used anywhere, so no contraction can change a
//    rounding.
//  * The running-max update `lb = g > lb ? g : lb` is _mm256_max_pd(g, lb)
//    verbatim: maxpd returns the SECOND operand on ties and NaNs, which is
//    precisely the scalar ternary's behaviour.
//  * Elimination keeps a lane iff NOT(lb >= bound), encoded as the
//    unordered-quiet predicate _CMP_NGE_UQ so an (impossible in practice,
//    but contract-tested) NaN bound/lb survives exactly like the scalar
//    `!(lb >= bound)`.
//  * Survivor compaction is the classic movemask + shuffle-table left
//    pack: a 4-bit keep mask selects a pshufb control for the 4 u32 ids
//    and a vpermd control for the 4 doubles. Stores write a full vector at
//    the write cursor; write <= read holds throughout, so at most the
//    block just loaded is overwritten, never unread data.
//  * The minimal-bound survivor is tracked as per-lane (key, id) running
//    minima with a strict '<', then folded by (key, id). The packed id
//    slice is strictly ascending (see sweep_kernel.h), so "smallest id
//    among ties" is exactly the scalar "first occurrence in scan order".
//    Ids ride along as exact doubles (u32 -> double via the 2^31 bias
//    trick, exact for the full 32-bit range).
//  * A lane whose bound is +inf never becomes `next` (inf < anything is
//    false), matching the scalar strict '<' from an infinite initial key —
//    eliminated-slot infinities propagate identically.

#if defined(__AVX2__)

#include <immintrin.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "search/sweep_kernel.h"
#include "search/table_quant.h"  // HalfToDouble for the f16 scalar tails

namespace cned {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Left-pack shuffle controls, indexed by the 4-bit keep mask.
struct PackTables {
  alignas(16) std::uint8_t u32_bytes[16][16];  // pshufb control, 4 x u32
  alignas(32) std::uint32_t f64_lanes[16][8];  // vpermd control, 4 x f64
  PackTables() {
    for (int m = 0; m < 16; ++m) {
      int w = 0;
      for (int lane = 0; lane < 4; ++lane) {
        if ((m >> lane) & 1) {
          for (int b = 0; b < 4; ++b) {
            u32_bytes[m][w * 4 + b] = static_cast<std::uint8_t>(lane * 4 + b);
          }
          f64_lanes[m][w * 2] = static_cast<std::uint32_t>(lane * 2);
          f64_lanes[m][w * 2 + 1] = static_cast<std::uint32_t>(lane * 2 + 1);
          ++w;
        }
      }
      // Tail lanes beyond the survivors are garbage by contract; zero-fill
      // the controls (0x80 zeroes pshufb lanes) so the stores are at least
      // deterministic.
      for (int b = w * 4; b < 16; ++b) u32_bytes[m][b] = 0x80;
      for (int l = w * 2; l < 8; ++l) f64_lanes[m][l] = 0;
    }
  }
};

const PackTables& Tables() {
  static const PackTables tables;
  return tables;
}

inline __m256d AbsDiff(__m256d d, __m256d row) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), _mm256_sub_pd(d, row));
}

/// Exact u32 -> double for all 2^32 values: bias to signed, convert, unbias.
inline __m256d U32ToDouble(__m128i v) {
  const __m128i biased = _mm_add_epi32(v, _mm_set1_epi32(INT32_MIN));
  return _mm256_add_pd(_mm256_cvtepi32_pd(biased),
                       _mm256_set1_pd(2147483648.0));
}

void Avx2UpdateLowerDense(double d, const double* row, double* lower,
                          std::size_t n) {
  const __m256d vd = _mm256_set1_pd(d);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d g = AbsDiff(vd, _mm256_loadu_pd(row + i));
    _mm256_storeu_pd(lower + i,
                     _mm256_max_pd(g, _mm256_loadu_pd(lower + i)));
  }
  for (; i < n; ++i) {
    const double g = std::abs(d - row[i]);
    if (g > lower[i]) lower[i] = g;
  }
}

void Avx2UpdateLowerPacked(double d, const double* row,
                           const std::uint32_t* idx, std::uint32_t base,
                           double* lower, std::size_t live) {
  const __m256d vd = _mm256_set1_pd(d);
  const __m128i vbase = _mm_set1_epi32(static_cast<int>(base));
  std::size_t r = 0;
  for (; r + 4 <= live; r += 4) {
    // Early in a sweep the packed slice is still (nearly) dense, and ids
    // are strictly ascending throughout — when a block spans exactly four
    // consecutive ids, a contiguous load replaces the (much slower on many
    // cores) hardware gather. Same row elements either way.
    const std::uint32_t first = idx[r];
    // GCC 12 flags the gather's deliberately undefined pass-through source
    // (every mask lane is set, so none of it reaches the result).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
    const __m256d rows =
        idx[r + 3] - first == 3
            ? _mm256_loadu_pd(row + (first - base))
            : _mm256_i32gather_pd(
                  row,
                  _mm_sub_epi32(_mm_loadu_si128(
                                    reinterpret_cast<const __m128i*>(idx + r)),
                                vbase),
                  8);
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
    const __m256d g = AbsDiff(vd, rows);
    _mm256_storeu_pd(lower + r,
                     _mm256_max_pd(g, _mm256_loadu_pd(lower + r)));
  }
  for (; r < live; ++r) {
    const double g = std::abs(d - row[idx[r] - base]);
    if (g > lower[r]) lower[r] = g;
  }
}

// --- Quantized row kernels (semantics in sweep_kernel.h). ------------------
//
// Every decode is exact, so the only rounded operations are the same
// subtractions/multiply the scalar kernels perform:
//  * f32 widens with cvtps_pd (exact).
//  * f16 reconstructs the float by shifting the half's exponent+mantissa
//    into float position and rescaling by 2^112f — an exact power-of-two
//    multiply, bit-identical to HalfToDouble.
//  * u8 widens the code via cvtepi32_pd (exact for 0..255) and multiplies
//    by the row scale — the ONE rounded multiply, same as the scalar
//    per-lane `double(code) * scale`. No FMA, so diff = m - d' cannot be
//    contracted with it.

/// max(diff, (-diff) - gap): sign-flip is exact, the subtraction is the
/// scalar's, and maxpd(diff, other) returns `other` on ties — exactly the
/// scalar ternary `diff > other ? diff : other`.
inline __m256d QuantArms(__m256d diff, __m256d vgap) {
  const __m256d other =
      _mm256_sub_pd(_mm256_xor_pd(diff, _mm256_set1_pd(-0.0)), vgap);
  return _mm256_max_pd(diff, other);
}

/// Exact decode of 4 binary16 codes sitting in u32 lanes.
inline __m256d DecodeHalfCodes(__m128i codes32) {
  const __m128i bits =
      _mm_slli_epi32(_mm_and_si128(codes32, _mm_set1_epi32(0x7FFF)), 13);
  const __m128 f = _mm_mul_ps(_mm_castsi128_ps(bits), _mm_set1_ps(0x1p112f));
  return _mm256_cvtps_pd(f);
}

/// 4 u8 codes -> u32 lanes (unaligned 4-byte load).
inline __m128i LoadU8x4(const std::uint8_t* p) {
  std::uint32_t four;
  std::memcpy(&four, p, sizeof(four));
  return _mm_cvtepu8_epi32(_mm_cvtsi32_si128(static_cast<int>(four)));
}

void Avx2UpdateLowerDenseF32(double d, const float* row, double gap,
                             double* lower, std::size_t n) {
  const __m256d vd = _mm256_set1_pd(d);
  const __m256d vgap = _mm256_set1_pd(gap);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(row + i));
    const __m256d g = QuantArms(_mm256_sub_pd(v, vd), vgap);
    _mm256_storeu_pd(lower + i, _mm256_max_pd(g, _mm256_loadu_pd(lower + i)));
  }
  for (; i < n; ++i) {
    const double diff = static_cast<double>(row[i]) - d;
    const double other = (-diff) - gap;
    const double g = diff > other ? diff : other;
    if (g > lower[i]) lower[i] = g;
  }
}

void Avx2UpdateLowerPackedF32(double d, const float* row,
                              const std::uint32_t* idx, std::uint32_t base,
                              double gap, double* lower, std::size_t live) {
  const __m256d vd = _mm256_set1_pd(d);
  const __m256d vgap = _mm256_set1_pd(gap);
  const __m128i vbase = _mm_set1_epi32(static_cast<int>(base));
  std::size_t r = 0;
  for (; r + 4 <= live; r += 4) {
    const std::uint32_t first = idx[r];
    const __m128 rows =
        idx[r + 3] - first == 3
            ? _mm_loadu_ps(row + (first - base))
            : _mm_i32gather_ps(
                  row,
                  _mm_sub_epi32(_mm_loadu_si128(
                                    reinterpret_cast<const __m128i*>(idx + r)),
                                vbase),
                  4);
    const __m256d g =
        QuantArms(_mm256_sub_pd(_mm256_cvtps_pd(rows), vd), vgap);
    _mm256_storeu_pd(lower + r, _mm256_max_pd(g, _mm256_loadu_pd(lower + r)));
  }
  for (; r < live; ++r) {
    const double diff = static_cast<double>(row[idx[r] - base]) - d;
    const double other = (-diff) - gap;
    const double g = diff > other ? diff : other;
    if (g > lower[r]) lower[r] = g;
  }
}

void Avx2UpdateLowerDenseF16(double d, const std::uint16_t* row, double gap,
                             double* lower, std::size_t n) {
  const __m256d vd = _mm256_set1_pd(d);
  const __m256d vgap = _mm256_set1_pd(gap);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i codes = _mm_cvtepu16_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(row + i)));
    const __m256d g =
        QuantArms(_mm256_sub_pd(DecodeHalfCodes(codes), vd), vgap);
    _mm256_storeu_pd(lower + i, _mm256_max_pd(g, _mm256_loadu_pd(lower + i)));
  }
  for (; i < n; ++i) {
    const double diff = HalfToDouble(row[i]) - d;
    const double other = (-diff) - gap;
    const double g = diff > other ? diff : other;
    if (g > lower[i]) lower[i] = g;
  }
}

void Avx2UpdateLowerPackedF16(double d, const std::uint16_t* row,
                              const std::uint32_t* idx, std::uint32_t base,
                              double gap, double* lower, std::size_t live) {
  const __m256d vd = _mm256_set1_pd(d);
  const __m256d vgap = _mm256_set1_pd(gap);
  std::size_t r = 0;
  for (; r + 4 <= live; r += 4) {
    const std::uint32_t first = idx[r];
    // No 16-bit hardware gather exists; scatter-load the four codes when
    // the block isn't contiguous.
    const __m128i codes =
        idx[r + 3] - first == 3
            ? _mm_cvtepu16_epi32(_mm_loadl_epi64(
                  reinterpret_cast<const __m128i*>(row + (first - base))))
            : _mm_setr_epi32(row[idx[r] - base], row[idx[r + 1] - base],
                             row[idx[r + 2] - base], row[idx[r + 3] - base]);
    const __m256d g =
        QuantArms(_mm256_sub_pd(DecodeHalfCodes(codes), vd), vgap);
    _mm256_storeu_pd(lower + r, _mm256_max_pd(g, _mm256_loadu_pd(lower + r)));
  }
  for (; r < live; ++r) {
    const double diff = HalfToDouble(row[idx[r] - base]) - d;
    const double other = (-diff) - gap;
    const double g = diff > other ? diff : other;
    if (g > lower[r]) lower[r] = g;
  }
}

void Avx2UpdateLowerDenseU8(double d, const std::uint8_t* row, double scale,
                            double offset, double gap, double* lower,
                            std::size_t n) {
  const double dq = d - offset;  // once per call, as in the scalar kernel
  const __m256d vdq = _mm256_set1_pd(dq);
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d vgap = _mm256_set1_pd(gap);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d m =
        _mm256_mul_pd(_mm256_cvtepi32_pd(LoadU8x4(row + i)), vscale);
    const __m256d g = QuantArms(_mm256_sub_pd(m, vdq), vgap);
    _mm256_storeu_pd(lower + i, _mm256_max_pd(g, _mm256_loadu_pd(lower + i)));
  }
  for (; i < n; ++i) {
    const double m = static_cast<double>(row[i]) * scale;
    const double diff = m - dq;
    const double other = (-diff) - gap;
    const double g = diff > other ? diff : other;
    if (g > lower[i]) lower[i] = g;
  }
}

void Avx2UpdateLowerPackedU8(double d, const std::uint8_t* row,
                             const std::uint32_t* idx, std::uint32_t base,
                             double scale, double offset, double gap,
                             double* lower, std::size_t live) {
  const double dq = d - offset;
  const __m256d vdq = _mm256_set1_pd(dq);
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d vgap = _mm256_set1_pd(gap);
  std::size_t r = 0;
  for (; r + 4 <= live; r += 4) {
    const std::uint32_t first = idx[r];
    const __m128i codes =
        idx[r + 3] - first == 3
            ? LoadU8x4(row + (first - base))
            : _mm_setr_epi32(row[idx[r] - base], row[idx[r + 1] - base],
                             row[idx[r + 2] - base], row[idx[r + 3] - base]);
    const __m256d m = _mm256_mul_pd(_mm256_cvtepi32_pd(codes), vscale);
    const __m256d g = QuantArms(_mm256_sub_pd(m, vdq), vgap);
    _mm256_storeu_pd(lower + r, _mm256_max_pd(g, _mm256_loadu_pd(lower + r)));
  }
  for (; r < live; ++r) {
    const double m = static_cast<double>(row[idx[r] - base]) * scale;
    const double diff = m - dq;
    const double other = (-diff) - gap;
    const double g = diff > other ? diff : other;
    if (g > lower[r]) lower[r] = g;
  }
}

void Avx2FillAbsDiffBounds(std::size_t x_len, const std::uint32_t* y_lens,
                           std::size_t n, double* out) {
  // double(x_len) and double(y) are exact (string lengths < 2^53, y < 2^32)
  // and so is their difference — identical to the scalar integer-subtract-
  // then-convert form.
  const __m256d vx = _mm256_set1_pd(static_cast<double>(x_len));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d y = U32ToDouble(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(y_lens + i)));
    _mm256_storeu_pd(out + i, AbsDiff(vx, y));
  }
  for (; i < n; ++i) {
    const std::size_t y = y_lens[i];
    out[i] = x_len > y ? static_cast<double>(x_len - y)
                       : static_cast<double>(y - x_len);
  }
}

/// Folds one (key, id) candidate into the running (next_key, next) pair
/// with the tie rule "smaller id wins" — equivalent to the scalar
/// first-occurrence strict '<' because packed ids are strictly ascending.
/// The id arrives as a double (the lane representation) and is converted
/// only behind the key guard: an unrecorded lane carries +inf in BOTH
/// registers, and float-to-integer conversion of inf would be UB.
inline void FoldMin(double key, double id_lane, double* next_key,
                    std::size_t* next) {
  if (!(key < kInf)) return;  // never recorded by the scalar strict '<'
  const std::size_t id = static_cast<std::size_t>(id_lane);
  if (key < *next_key || (key == *next_key && id < *next)) {
    *next_key = key;
    *next = id;
  }
}

/// Shared body of the two packed eliminate-and-compact kernels. kFlagged
/// adds the pivot bookkeeping of the lazy sweeps.
template <bool kFlagged>
SweepCompactResult Avx2Eliminate(std::uint32_t* idx, double* lower,
                                 const std::int32_t* pivot_rank,
                                 std::size_t live, std::uint32_t skip,
                                 double bound) {
  // Below a couple of vector blocks the per-pass fixed cost (broadcasts,
  // final lane reduce, the rank gather's latency) outweighs the lane win —
  // and late-sweep passes over a collapsed candidate set are the common
  // case in the lazy path. The scalar tail loop below IS the scalar
  // kernel, so skipping the vector phase changes nothing but speed.
  constexpr std::size_t kScalarCutoff = 32;
  SweepCompactResult out;
  const PackTables& t = Tables();
  const __m256d vbound = _mm256_set1_pd(bound);
  const __m256d vinf = _mm256_set1_pd(kInf);
  const __m128i vskip = _mm_set1_epi32(static_cast<int>(skip));
  const __m128i vneg1 = _mm_set1_epi32(-1);
  __m256d vmin = vinf, vmin_id = vinf;
  __m256d vpmin = vinf, vpmin_id = vinf;
  std::size_t pivots_died = 0;
  std::size_t write = 0;
  std::size_t r = 0;
  for (; live >= kScalarCutoff && r + 4 <= live; r += 4) {
    const __m128i vi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + r));
    const __m256d lb = _mm256_loadu_pd(lower + r);
    // keep iff id != skip && !(lb >= bound)
    const __m256d value_ok = _mm256_cmp_pd(lb, vbound, _CMP_NGE_UQ);
    const __m128i skip_eq = _mm_cmpeq_epi32(vi, vskip);
    const int skip_bits = _mm_movemask_ps(_mm_castsi128_ps(skip_eq));
    const int keep = _mm256_movemask_pd(value_ok) & ~skip_bits & 0xF;
    // Left-pack survivors in place (write <= r: never clobbers unread data).
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(idx + write),
        _mm_shuffle_epi8(vi, _mm_load_si128(reinterpret_cast<const __m128i*>(
                                 t.u32_bytes[keep]))));
    _mm256_storeu_pd(
        lower + write,
        _mm256_castsi256_pd(_mm256_permutevar8x32_epi32(
            _mm256_castpd_si256(lb),
            _mm256_load_si256(
                reinterpret_cast<const __m256i*>(t.f64_lanes[keep])))));
    write += static_cast<std::size_t>(
        __builtin_popcount(static_cast<unsigned>(keep)));
    // Running minimum over kept lanes (masked-out lanes become +inf, which
    // the strict '<' never records).
    const __m256d keep_mask = _mm256_andnot_pd(
        _mm256_castsi256_pd(_mm256_cvtepi32_epi64(skip_eq)), value_ok);
    const __m256d masked = _mm256_blendv_pd(vinf, lb, keep_mask);
    const __m256d lt = _mm256_cmp_pd(masked, vmin, _CMP_LT_OQ);
    const __m256d ids = U32ToDouble(vi);
    vmin = _mm256_blendv_pd(vmin, masked, lt);
    vmin_id = _mm256_blendv_pd(vmin_id, ids, lt);
    if constexpr (kFlagged) {
      const __m128i ranks = _mm_i32gather_epi32(
          reinterpret_cast<const int*>(pivot_rank), vi, 4);
      const __m128i flag32 = _mm_cmpgt_epi32(ranks, vneg1);  // rank >= 0
      const int flag_bits = _mm_movemask_ps(_mm_castsi128_ps(flag32));
      pivots_died += static_cast<std::size_t>(
          __builtin_popcount(static_cast<unsigned>(flag_bits & ~keep & 0xF)));
      const __m256d flag_mask =
          _mm256_castsi256_pd(_mm256_cvtepi32_epi64(flag32));
      const __m256d pmasked = _mm256_blendv_pd(
          vinf, lb, _mm256_and_pd(keep_mask, flag_mask));
      const __m256d plt = _mm256_cmp_pd(pmasked, vpmin, _CMP_LT_OQ);
      vpmin = _mm256_blendv_pd(vpmin, pmasked, plt);
      vpmin_id = _mm256_blendv_pd(vpmin_id, ids, plt);
    }
  }
  // Fold the vector lanes, then the scalar tail (tail ids are larger than
  // every vector-phase id, so the shared (key, id) rule stays exact).
  alignas(32) double keys[4], ids[4];
  _mm256_store_pd(keys, vmin);
  _mm256_store_pd(ids, vmin_id);
  for (int l = 0; l < 4; ++l) {
    FoldMin(keys[l], ids[l], &out.next_key, &out.next);
  }
  if constexpr (kFlagged) {
    _mm256_store_pd(keys, vpmin);
    _mm256_store_pd(ids, vpmin_id);
    for (int l = 0; l < 4; ++l) {
      FoldMin(keys[l], ids[l], &out.next_pivot_key, &out.next_pivot);
    }
  }
  for (; r < live; ++r) {
    const std::uint32_t u = idx[r];
    const bool is_pivot = kFlagged && pivot_rank[u] >= 0;
    if (u == skip) {
      pivots_died += is_pivot ? 1 : 0;
      continue;
    }
    const double lb = lower[r];
    if (lb >= bound) {
      pivots_died += is_pivot ? 1 : 0;
      continue;
    }
    idx[write] = u;
    lower[write] = lb;
    ++write;
    FoldMin(lb, static_cast<double>(u), &out.next_key, &out.next);
    if (is_pivot) {
      FoldMin(lb, static_cast<double>(u), &out.next_pivot_key,
              &out.next_pivot);
    }
  }
  out.live = write;
  out.pivots_died = kFlagged ? pivots_died : 0;
  return out;
}

SweepCompactResult Avx2EliminateAndCompact(std::uint32_t* idx, double* lower,
                                           std::size_t live,
                                           std::uint32_t skip, double bound) {
  return Avx2Eliminate<false>(idx, lower, nullptr, live, skip, bound);
}

SweepCompactResult Avx2EliminateAndCompactFlagged(
    std::uint32_t* idx, double* lower, const std::int32_t* pivot_rank,
    std::size_t live, std::uint32_t skip, double bound) {
  return Avx2Eliminate<true>(idx, lower, pivot_rank, live, skip, bound);
}

SweepCompactResult Avx2CompactSeed(const double* lower_dense,
                                   const std::int32_t* rank, std::size_t n,
                                   std::uint32_t base, double bound,
                                   std::uint32_t* idx_out,
                                   double* lower_out) {
  SweepCompactResult out;
  const PackTables& t = Tables();
  const __m256d vbound = _mm256_set1_pd(bound);
  const __m256d vinf = _mm256_set1_pd(kInf);
  const __m128i viota = _mm_setr_epi32(0, 1, 2, 3);
  const __m128i vzero = _mm_setzero_si128();
  __m256d vmin = vinf, vmin_id = vinf;
  std::size_t write = 0;
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d lb = _mm256_loadu_pd(lower_dense + j);
    const __m128i ranks =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rank + j));
    const __m128i non_pivot = _mm_cmpgt_epi32(vzero, ranks);  // rank < 0
    const __m256d value_ok = _mm256_cmp_pd(lb, vbound, _CMP_NGE_UQ);
    const int keep = _mm256_movemask_pd(value_ok) &
                     _mm_movemask_ps(_mm_castsi128_ps(non_pivot)) & 0xF;
    const __m128i ids32 = _mm_add_epi32(
        _mm_set1_epi32(static_cast<int>(base + static_cast<std::uint32_t>(j))),
        viota);
    // lower_out may alias lower_dense: write <= j keeps the pack in-place
    // safe exactly as in the packed kernels.
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(idx_out + write),
        _mm_shuffle_epi8(ids32,
                         _mm_load_si128(reinterpret_cast<const __m128i*>(
                             t.u32_bytes[keep]))));
    _mm256_storeu_pd(
        lower_out + write,
        _mm256_castsi256_pd(_mm256_permutevar8x32_epi32(
            _mm256_castpd_si256(lb),
            _mm256_load_si256(
                reinterpret_cast<const __m256i*>(t.f64_lanes[keep])))));
    write += static_cast<std::size_t>(
        __builtin_popcount(static_cast<unsigned>(keep)));
    const __m256d keep_mask = _mm256_and_pd(
        _mm256_castsi256_pd(_mm256_cvtepi32_epi64(non_pivot)), value_ok);
    const __m256d masked = _mm256_blendv_pd(vinf, lb, keep_mask);
    const __m256d lt = _mm256_cmp_pd(masked, vmin, _CMP_LT_OQ);
    const __m256d ids = U32ToDouble(ids32);
    vmin = _mm256_blendv_pd(vmin, masked, lt);
    vmin_id = _mm256_blendv_pd(vmin_id, ids, lt);
  }
  alignas(32) double keys[4], ids[4];
  _mm256_store_pd(keys, vmin);
  _mm256_store_pd(ids, vmin_id);
  for (int l = 0; l < 4; ++l) {
    FoldMin(keys[l], ids[l], &out.next_key, &out.next);
  }
  for (; j < n; ++j) {
    if (rank[j] >= 0) continue;
    const double lb = lower_dense[j];
    if (lb >= bound) continue;
    idx_out[write] = base + static_cast<std::uint32_t>(j);
    lower_out[write] = lb;
    ++write;
    FoldMin(lb, static_cast<double>(base + j), &out.next_key, &out.next);
  }
  out.live = write;
  return out;
}

}  // namespace

const SweepKernels& Avx2SweepKernels() {
  static const SweepKernels kAvx2 = [] {
    SweepKernels k{};
    k.name = "avx2";
    k.update_lower_dense = Avx2UpdateLowerDense;
    k.update_lower_packed = Avx2UpdateLowerPacked;
    k.update_lower_dense_f32 = Avx2UpdateLowerDenseF32;
    k.update_lower_packed_f32 = Avx2UpdateLowerPackedF32;
    k.update_lower_dense_f16 = Avx2UpdateLowerDenseF16;
    k.update_lower_packed_f16 = Avx2UpdateLowerPackedF16;
    k.update_lower_dense_u8 = Avx2UpdateLowerDenseU8;
    k.update_lower_packed_u8 = Avx2UpdateLowerPackedU8;
    k.fill_absdiff_bounds = Avx2FillAbsDiffBounds;
    k.eliminate_and_compact = Avx2EliminateAndCompact;
    k.eliminate_and_compact_flagged = Avx2EliminateAndCompactFlagged;
    k.compact_seed = Avx2CompactSeed;
    return k;
  }();
  return kAvx2;
}

}  // namespace cned

#endif  // defined(__AVX2__)
