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
//  * The d_C,h diamond is integer-only: packed cells stay below 2^63, so
//    the signed _mm256_cmpgt_epi64 plus a blend is the exact unsigned min
//    of the scalar row form.
//  * The exact d_C DP is integer-only too: its int8 lanes hold the scalar
//    form's insertion counts, or a negative value where it has no path,
//    and the same scan turns them into the result.

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "common/dp_workspace.h"
#include "core/contextual.h"
#include "distances/myers.h"
#include "search/sweep_kernel.h"
#include "search/table_quant.h"  // HalfToDouble for the f16 scalar tails

namespace cned {
namespace {

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

// --- Blocked row application for a group of queries. ----------------------
//
// A block of lanes holds every query's bounds in registers while all the
// rows of a chunk apply to it, each row's lanes loaded and decoded once for
// the whole group. Per lane and query the rows apply in order, with the
// per-row bodies' exact operations: f64 is AbsDiff(d, t), the narrow
// precisions QuantArms(v - dq, gap) with u8's dq = d - offset computed once
// per row and query, and the running max keeps the bound on ties
// (maxpd(g, lb)). So the pass leaves the bits rows x queries per-row calls
// leave.

/// Rows per chunk: the per-row operands of a chunk live on the stack.
constexpr std::size_t kRowChunk = 32;

/// One chunk's per-row operands: the row's first element, its gap and u8
/// scale, and dq[r * queries + b], query b's d (u8: d - offset).
struct RowChunk {
  const void* row[kRowChunk];
  double gap[kRowChunk];
  double scale[kRowChunk];
  double dq[kRowChunk * kMaxRowQueries];
};

/// The decode of each precision: four lanes of a row as doubles, and one
/// query's bound from them, vector and scalar.
struct F64Lanes {
  using Elem = double;
  static __m256d Load(const double* p, __m256d) { return _mm256_loadu_pd(p); }
  static __m256d Bound(__m256d t, __m256d vd, __m256d) {
    return AbsDiff(vd, t);
  }
  static double Bound(const double* p, double d, double, double) {
    return std::abs(d - *p);
  }
};

struct F32Lanes {
  using Elem = float;
  static __m256d Load(const float* p, __m256d) {
    return _mm256_cvtps_pd(_mm_loadu_ps(p));
  }
  static __m256d Bound(__m256d v, __m256d vdq, __m256d vgap) {
    return QuantArms(_mm256_sub_pd(v, vdq), vgap);
  }
  static double Bound(const float* p, double dq, double gap, double) {
    return QuantArmMax(static_cast<double>(*p) - dq, gap);
  }
};

struct F16Lanes {
  using Elem = std::uint16_t;
  static __m256d Load(const std::uint16_t* p, __m256d) {
    return DecodeHalfCodes(_mm_cvtepu16_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p))));
  }
  static __m256d Bound(__m256d v, __m256d vdq, __m256d vgap) {
    return QuantArms(_mm256_sub_pd(v, vdq), vgap);
  }
  static double Bound(const std::uint16_t* p, double dq, double gap, double) {
    return QuantArmMax(HalfToDouble(*p) - dq, gap);
  }
};

struct U8Lanes {
  using Elem = std::uint8_t;
  static __m256d Load(const std::uint8_t* p, __m256d vscale) {
    return _mm256_mul_pd(_mm256_cvtepi32_pd(LoadU8x4(p)), vscale);
  }
  static __m256d Bound(__m256d m, __m256d vdq, __m256d vgap) {
    return QuantArms(_mm256_sub_pd(m, vdq), vgap);
  }
  static double Bound(const std::uint8_t* p, double dq, double gap,
                      double scale) {
    return QuantArmMax(static_cast<double>(*p) * scale - dq, gap);
  }
};

/// The chunk's `rows` rows over whole blocks of 4 * kV lanes from lane i
/// on, kB queries; returns the first lane past the last whole block.
template <typename Lanes, std::size_t kB, std::size_t kV>
std::size_t Avx2RowBlocks(const RowChunk& c, std::size_t rows,
                          double* const* lower, std::size_t i,
                          std::size_t n) {
  using Elem = typename Lanes::Elem;
  constexpr std::size_t kLanes = 4 * kV;
  for (; i + kLanes <= n; i += kLanes) {
    __m256d acc[kB][kV];
    for (std::size_t b = 0; b < kB; ++b) {
      for (std::size_t v = 0; v < kV; ++v) {
        acc[b][v] = _mm256_loadu_pd(lower[b] + i + 4 * v);
      }
    }
    for (std::size_t r = 0; r < rows; ++r) {
      const Elem* row = static_cast<const Elem*>(c.row[r]) + i;
      const __m256d vgap = _mm256_set1_pd(c.gap[r]);
      __m256d t[kV];
      for (std::size_t v = 0; v < kV; ++v) {
        t[v] = Lanes::Load(row + 4 * v, _mm256_set1_pd(c.scale[r]));
      }
      for (std::size_t b = 0; b < kB; ++b) {
        const __m256d vdq = _mm256_set1_pd(c.dq[r * kB + b]);
        for (std::size_t v = 0; v < kV; ++v) {
          acc[b][v] = _mm256_max_pd(Lanes::Bound(t[v], vdq, vgap), acc[b][v]);
        }
      }
    }
    for (std::size_t b = 0; b < kB; ++b) {
      for (std::size_t v = 0; v < kV; ++v) {
        _mm256_storeu_pd(lower[b] + i + 4 * v, acc[b][v]);
      }
    }
  }
  return i;
}

/// All n lanes of one chunk: wide blocks, then four-lane blocks, then a
/// scalar tail. kV keeps the kB x kV accumulators within the 16 registers.
template <typename Lanes, std::size_t kB>
void Avx2RowChunk(const RowChunk& c, std::size_t rows, double* const* lower,
                  std::size_t n) {
  using Elem = typename Lanes::Elem;
  constexpr std::size_t kV = kB <= 2 ? 4 : 2;
  std::size_t i = Avx2RowBlocks<Lanes, kB, kV>(c, rows, lower, 0, n);
  i = Avx2RowBlocks<Lanes, kB, 1>(c, rows, lower, i, n);
  for (std::size_t b = 0; b < kB; ++b) {
    for (std::size_t r = 0; r < rows; ++r) {
      const Elem* row = static_cast<const Elem*>(c.row[r]);
      for (std::size_t j = i; j < n; ++j) {
        const double g =
            Lanes::Bound(row + j, c.dq[r * kB + b], c.gap[r], c.scale[r]);
        if (g > lower[b][j]) lower[b][j] = g;
      }
    }
  }
}

template <typename Lanes>
void Avx2UpdateLowerRowsAs(const QuantTableView& table,
                           const std::size_t* ranks, std::size_t rows,
                           const double* d, std::size_t queries,
                           double* const* lower, std::size_t n) {
  using Elem = typename Lanes::Elem;
  const Elem* base = table.f64 != nullptr
                         ? reinterpret_cast<const Elem*>(table.f64)
                         : static_cast<const Elem*>(table.q);
  RowChunk c;
  for (std::size_t r0 = 0; r0 < rows; r0 += kRowChunk) {
    const std::size_t m = std::min(kRowChunk, rows - r0);
    for (std::size_t r = 0; r < m; ++r) {
      const std::size_t rank = ranks[r0 + r];
      const QuantRowMeta meta =
          table.rows != nullptr ? table.rows[rank] : QuantRowMeta{};
      c.row[r] = base + rank * n;
      c.gap[r] = meta.gap;
      c.scale[r] = meta.scale;
      for (std::size_t b = 0; b < queries; ++b) {
        const double dv = d[(r0 + r) * queries + b];
        // u8 only: the per-row body's dq, once per row and query.
        c.dq[r * queries + b] =
            table.precision == TablePrecision::kU8 ? dv - meta.offset : dv;
      }
    }
    switch (queries) {
      case 1: Avx2RowChunk<Lanes, 1>(c, m, lower, n); break;
      case 2: Avx2RowChunk<Lanes, 2>(c, m, lower, n); break;
      case 3: Avx2RowChunk<Lanes, 3>(c, m, lower, n); break;
      case 4: Avx2RowChunk<Lanes, 4>(c, m, lower, n); break;
    }
  }
}

void Avx2UpdateLowerRows(const QuantTableView& table,
                         const std::size_t* ranks, std::size_t rows,
                         const double* d, std::size_t queries,
                         double* const* lower, std::size_t n) {
  switch (table.precision) {
    case TablePrecision::kF64:
      return Avx2UpdateLowerRowsAs<F64Lanes>(table, ranks, rows, d, queries,
                                             lower, n);
    case TablePrecision::kF32:
      return Avx2UpdateLowerRowsAs<F32Lanes>(table, ranks, rows, d, queries,
                                             lower, n);
    case TablePrecision::kF16:
      return Avx2UpdateLowerRowsAs<F16Lanes>(table, ranks, rows, d, queries,
                                             lower, n);
    case TablePrecision::kU8:
      return Avx2UpdateLowerRowsAs<U8Lanes>(table, ranks, rows, d, queries,
                                            lower, n);
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

// The survivor stream's keys, lane for lane the scalar map: mulpd is the
// scalar multiply, and minpd(x, top) returns its second operand on NaN as
// `x < top ? x : top` does. Lanes that are not survivors take `buckets`
// (exact as a double) before the conversion, so cvttpd2dq truncates the
// value the scalar cast does; every value lies in [0, buckets] < 2^31.
void Avx2StreamKeys(const StreamBucketMap& map, const double* lower,
                    std::size_t n, std::uint32_t* keys) {
  const __m256d vscale = _mm256_set1_pd(map.scale);
  const __m256d vtop = _mm256_set1_pd(map.top);
  const __m256d vseed = _mm256_set1_pd(map.seed_bound);
  const __m256d vrest = _mm256_set1_pd(static_cast<double>(map.buckets));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d b = _mm256_loadu_pd(lower + i);
    const __m256d c = _mm256_min_pd(_mm256_mul_pd(b, vscale), vtop);
    const __m256d keep = _mm256_cmp_pd(b, vseed, _CMP_LT_OQ);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(keys + i),
                     _mm256_cvttpd_epi32(_mm256_blendv_pd(vrest, c, keep)));
  }
  for (; i < n; ++i) keys[i] = map.Key(lower[i]);
}

// Exact for lanes below 2^63, where signed and unsigned order agree.
inline __m256i MinU63(__m256i a, __m256i b) {
  return _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(a, b));
}

inline __m256i LoadLanes(const std::uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

// One block of four cells: the packed min-plus step of the scalar row form.
// `aligned` is the predecessor on diagonal t - 1 in the block's own lanes,
// `shifted` the other one, a lane shift later: it enters last.
inline __m256i DiamondStep(__m256i diag, __m256i aligned, __m256i shifted,
                           __m256i eq) {
  const __m256i indel =
      _mm256_set1_epi64x(static_cast<long long>(kPackedIndel));
  const __m256i subst =
      _mm256_set1_epi64x(static_cast<long long>(kPackedSubst));
  return MinU63(MinU63(_mm256_add_epi64(diag, _mm256_andnot_si256(eq, subst)),
                       _mm256_add_epi64(aligned, indel)),
                _mm256_add_epi64(shifted, indel));
}

// The diamond one anti-diagonal t = i + j at a time. Cell (i, t - i) reads
// cell i - 1 of diagonal t - 2 and cells i - 1 and i of diagonal t - 1, so
// the cells of one diagonal are independent lanes.
//
// Lane q of diagonal t is cell i = q + ceil(t / 2) - a, with a fixed per
// call, so the diamond lies in the same lanes [0, band) on every
// anti-diagonal. On one parity of t an edge lane holds the diamond's edge
// diagonal, on the other it may hold the diagonal just outside: a real
// cell, and a superset of the diamond gives the same value. Lanes
// [band, width) round the band up to whole blocks and are forced to
// >= kPackedOutside. In these lanes cell i - 1 of diagonal t - 2 is lane
// q, and cells i - 1 and i of diagonal t - 1 are lanes q - 1 and q for even
// t, q and q + 1 for odd t. A line holds lane q in slot q + 4, between two
// blocks of sentinels that stay kPackedOutside. Lanes are read and written
// in whole four-slot blocks, and a lane shifted by one comes from a
// neighbouring block in registers, so each load is one block an earlier
// diagonal stored whole.
//
// The lanes off the table need no mask. A lane with i < 0 or j < 0 reads
// only such lanes or sentinels, all >= kPackedOutside from diagonals -1
// and 0 on, so it stays >= kPackedOutside. A lane with i > m or j > n is
// read by no cell of the table, so the blocks holding only such lanes are
// skipped.
std::uint64_t Avx2ContextualDiamond(std::string_view x, std::string_view y,
                                    std::size_t e, DpWorkspace& ws) {
  const std::size_t m = x.size(), n = y.size();
  const std::size_t below = (e + m - n) / 2;  // the largest i - j
  const std::size_t above = (e + n - m) / 2;  // the largest j - i
  const std::size_t a = (above + 1) / 2;
  const std::size_t band = a + below / 2 + 1;
  const std::size_t width = (band + 3) & ~std::size_t{3};
  // A one-block diamond (d_E up to 6 or 7) is latency-bound: every
  // anti-diagonal waits on the last one's single block. The row form is
  // faster there (2-4x at d_E <= 4 on 30- and 60-symbol pairs).
  if (width == 4) return ScalarSweepKernels().contextual_diamond(x, y, e, ws);

  // Symbols widened to lanes: lane q of diagonal t compares
  // xw[q + ceil(t / 2)] = x[i - 1] with yw[q + n + 3 - floor(t / 2) - a] =
  // y[j - 1]. Off the strings both read pads, which differ from every byte
  // and from each other; a pad meets only a lane off the table or a border
  // cell (i = 0 or j = 0), whose diagonal predecessor is off the table.
  constexpr std::uint64_t kPadX = 256, kPadY = 257;
  const std::size_t x_lanes = m + a + 8, y_lanes = n + width + 8;
  ws.diamond_text.resize(x_lanes + y_lanes);
  std::uint64_t* xw = ws.diamond_text.data();
  std::uint64_t* yw = xw + x_lanes;
  std::fill_n(xw, x_lanes, kPadX);
  for (std::size_t k = 0; k < m; ++k) {
    xw[k + a + 1] = static_cast<unsigned char>(x[k]);
  }
  std::fill_n(yw, y_lanes, kPadY);
  for (std::size_t k = 0; k < n; ++k) {
    yw[n + 2 - k] = static_cast<unsigned char>(y[k]);
  }

  for (auto& line : ws.packed_lines) line.assign(width + 8, kPackedOutside);
  std::uint64_t* d2 = ws.packed_lines[0].data();  // diagonal t - 2
  std::uint64_t* d1 = ws.packed_lines[1].data();  // diagonal t - 1
  std::uint64_t* d0 = ws.packed_lines[2].data();  // diagonal t
  // Diagonal -1 is off the table; diagonal 0 is the one cell (0, 0).
  d1[a + 4] = 0;

  // OR-ed into the top block: kPackedOutside in its lanes >= band.
  const __m256i top_or = _mm256_and_si256(
      _mm256_set1_epi64x(static_cast<long long>(kPackedOutside)),
      _mm256_cmpgt_epi64(
          _mm256_add_epi64(_mm256_set1_epi64x(static_cast<long long>(width - 4)),
                           _mm256_setr_epi64x(1, 2, 3, 4)),
          _mm256_set1_epi64x(static_cast<long long>(band))));
  for (std::size_t t = 1; t <= m + n; ++t) {
    const std::size_t half_up = (t + 1) / 2, half_down = t / 2;
    // Lanes below q_lo have j > n; lanes past q_hi have i > m (m + a >=
    // half_up, as a >= (n - m + 1) / 2 when n > m).
    const std::size_t q_lo =
        half_down + a > n ? (half_down + a - n) & ~std::size_t{3} : 0;
    // q_lo < band on every diagonal, so the loads stay in the line.
    const std::size_t q_hi = std::min(width - 1, m + a - half_up);
    const std::uint64_t* xt = xw + half_up;
    std::size_t yk = q_lo + n + 3 - half_down - a;  // >= 0: q_lo >= the clip
    // Block q from its predecessors on diagonal t - 1, `aligned` in its own
    // lanes and `shifted` one lane off.
    const auto store_block = [&](std::size_t q, __m256i aligned,
                                 __m256i shifted) {
      const __m256i eq =
          _mm256_cmpeq_epi64(LoadLanes(xt + q), LoadLanes(yw + yk));
      __m256i v = DiamondStep(LoadLanes(d2 + q + 4), aligned, shifted, eq);
      if (q + 4 > band) v = _mm256_or_si256(v, top_or);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(d0 + q + 4), v);
    };
    if (t % 2 == 0) {
      // Up is lane q - 1 of diagonal t - 1: the block rotated up one lane,
      // the previous block's top lane entering at the bottom.
      __m256i prev_rot =
          _mm256_permute4x64_epi64(LoadLanes(d1 + q_lo), 0x93);
      for (std::size_t q = q_lo; q <= q_hi; q += 4, yk += 4) {
        const __m256i left = LoadLanes(d1 + q + 4);
        const __m256i left_rot = _mm256_permute4x64_epi64(left, 0x93);
        store_block(q, left, _mm256_blend_epi32(left_rot, prev_rot, 0x03));
        prev_rot = left_rot;
      }
    } else {
      // Left is lane q + 1 of diagonal t - 1: the block rotated down one
      // lane, the next block's bottom lane entering at the top.
      __m256i up = LoadLanes(d1 + q_lo + 4);
      __m256i up_rot = _mm256_permute4x64_epi64(up, 0x39);
      for (std::size_t q = q_lo; q <= q_hi; q += 4, yk += 4) {
        const __m256i next = LoadLanes(d1 + q + 8);
        const __m256i next_rot = _mm256_permute4x64_epi64(next, 0x39);
        store_block(q, up, _mm256_blend_epi32(up_rot, next_rot, 0xC0));
        up = next;
        up_rot = next_rot;
      }
    }
    std::uint64_t* const free_line = d2;
    d2 = d1;
    d1 = d0;
    d0 = free_line;
  }
  return d1[m + a - (m + n + 1) / 2 + 4];
}

// --- The exact d_C DP with its layers in lanes. ---------------------------
//
// Algorithm 1 turned around: a cell's layers are the int8 lanes of R
// vectors (register r holds layers 32r to 32r + 31), so one pass over the
// cells fills every layer. With S one layer up, -128 entering layer 0,
// the scalar entry's recurrence per layer is
//
//   V = max(S(L) + 1, S(U), eq ? D : S(D)),
//
// D, U and L the diagonal, up and left cells. A row keeps each cell's V
// and S(V): S(L) is the chain from one cell to the next, and the row below
// reads both. A lane is a path iff it is >= 0.
// Inductively an invalid lane in column j is at most -128 + j: -128 enters
// at layer 0 (S(L) + 1 enters as -127, in column j >= 1), and each step
// right adds one. So while |y| <= 127 no invalid lane reaches 0, and no
// valid one, at most j - 1 before its + 1, reaches the top: the saturating
// add never saturates, and a wrapping one would give the same bits.

constexpr std::size_t kLayerLanes = 32;
constexpr std::size_t kMaxLayerRegisters = 4;

// One layer up: lane k takes lane k - 1, lane 0 takes lane 31 of `below`,
// the register holding the layers under v's (all -128 under register 0).
inline __m256i LayersUp(__m256i v, __m256i below) {
  return _mm256_alignr_epi8(v, _mm256_permute2x128_si256(v, below, 0x03),
                            15);
}

// Fills the DP over R registers and stores the final cell's 32R lanes.
template <std::size_t R>
void FillLayerLanes(std::string_view x, std::string_view y, DpWorkspace& ws,
                    std::int8_t* out) {
  const std::size_t m = x.size(), n = y.size();
  const std::size_t row = (n + 1) * R;
  ws.layer_lanes.resize((4 * row + n + 1) * sizeof(__m256i));
  __m256i* pv = reinterpret_cast<__m256i*>(ws.layer_lanes.data());  // V, i-1
  __m256i* ps = pv + row;  // S(V), row i - 1
  __m256i* cv = ps + row;  // V, row i
  __m256i* cs = cv + row;  // S(V), row i
  __m256i* yb = cs + row;  // yb[j]: y_j in every lane
  for (std::size_t j = 1; j <= n; ++j) yb[j] = _mm256_set1_epi8(y[j - 1]);

  const __m256i fill = _mm256_set1_epi8(-128);
  const __m256i one = _mm256_set1_epi8(1);
  const auto up = [fill](const __m256i* v, __m256i* s) {
    s[0] = LayersUp(v[0], fill);
    for (std::size_t r = 1; r < R; ++r) s[r] = LayersUp(v[r], v[r - 1]);
  };
  __m256i left[R], s[R];

  // Row 0: (0, 0) is layer 0 only; (0, j) inserts y_j.
  left[0] = _mm256_and_si256(fill, _mm256_setr_epi64x(-256, -1, -1, -1));
  for (std::size_t r = 1; r < R; ++r) left[r] = fill;
  for (std::size_t r = 0; r < R; ++r) pv[r] = left[r];
  for (std::size_t j = 1; j <= n; ++j) {
    up(left, s);
    for (std::size_t r = 0; r < R; ++r) {
      ps[(j - 1) * R + r] = s[r];
      pv[j * R + r] = left[r] = _mm256_adds_epi8(s[r], one);
    }
  }
  up(left, s);
  for (std::size_t r = 0; r < R; ++r) ps[n * R + r] = s[r];

  // V from S(L), S(U), D and S(D), one register.
  const auto cell = [one](__m256i sl, __m256i su, __m256i d, __m256i sd,
                          __m256i eq) {
    return _mm256_max_epi8(_mm256_adds_epi8(sl, one),
                           _mm256_max_epi8(su, _mm256_blendv_epi8(sd, d, eq)));
  };

  // Rows two at a time, the lower one a column behind: cell (i + 1, j - 1)
  // reads row i's cells j - 2 and j - 1 and their shifts, all still in
  // registers, so the two left-to-right chains overlap and row i is never
  // stored. Past two registers a pair's state no longer fits the sixteen
  // vector registers, and one row at a time is as fast.
  std::size_t i = 1;
  for (; R <= 2 && n > 0 && i < m; i += 2) {
    const __m256i x_top = _mm256_set1_epi8(x[i - 1]);
    const __m256i x_bot = _mm256_set1_epi8(x[i]);
    // top: V(i, j - 1), top_prev: V(i, j - 2), and their shifts st and
    // st_prev; bot: V(i + 1, j - 2) and its shift sb.
    __m256i top[R], top_prev[R], st[R], st_prev[R], bot[R], sb[R];
    for (std::size_t r = 0; r < R; ++r) top_prev[r] = ps[r];  // deletions
    up(top_prev, st_prev);
    const __m256i eq1 = _mm256_cmpeq_epi8(yb[1], x_top);
    for (std::size_t r = 0; r < R; ++r) {
      top[r] = cell(st_prev[r], ps[R + r], pv[r], ps[r], eq1);
      cv[r] = bot[r] = st_prev[r];  // deletions
    }
    for (std::size_t j = 2; j <= n; ++j) {
      const __m256i eq_top = _mm256_cmpeq_epi8(yb[j], x_top);
      const __m256i eq_bot = _mm256_cmpeq_epi8(yb[j - 1], x_bot);
      up(top, st);
      up(bot, sb);
      const std::size_t d = (j - 1) * R;
      for (std::size_t r = 0; r < R; ++r) {
        cs[d - R + r] = sb[r];
        const __m256i v_top =
            cell(st[r], ps[d + R + r], pv[d + r], ps[d + r], eq_top);
        cv[d + r] = bot[r] =
            cell(sb[r], st[r], top_prev[r], st_prev[r], eq_bot);
        top_prev[r] = top[r];
        top[r] = v_top;
        st_prev[r] = st[r];
      }
    }
    const __m256i eq_last = _mm256_cmpeq_epi8(yb[n], x_bot);
    up(top, st);
    up(bot, sb);
    for (std::size_t r = 0; r < R; ++r) {
      cs[(n - 1) * R + r] = sb[r];
      cv[n * R + r] = bot[r] =
          cell(sb[r], st[r], top_prev[r], st_prev[r], eq_last);
    }
    up(bot, sb);
    for (std::size_t r = 0; r < R; ++r) cs[n * R + r] = sb[r];
    std::swap(pv, cv);
    std::swap(ps, cs);
  }
  // The rows left: the last one when m is odd, every one when n = 0 or
  // R > 2.
  for (; i <= m; ++i) {
    const __m256i xb = _mm256_set1_epi8(x[i - 1]);
    // Column 0: deletions only.
    for (std::size_t r = 0; r < R; ++r) cv[r] = left[r] = ps[r];
    for (std::size_t j = 1; j <= n; ++j) {
      const __m256i eq = _mm256_cmpeq_epi8(yb[j], xb);
      up(left, s);
      const std::size_t d = (j - 1) * R, u = j * R;
      for (std::size_t r = 0; r < R; ++r) {
        cs[d + r] = s[r];
        cv[u + r] = left[r] = cell(s[r], ps[u + r], pv[d + r], ps[d + r], eq);
      }
    }
    up(left, s);
    for (std::size_t r = 0; r < R; ++r) cs[n * R + r] = s[r];
    std::swap(pv, cv);
    std::swap(ps, cs);
  }
  for (std::size_t r = 0; r < R; ++r) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + r * kLayerLanes),
                        pv[n * R + r]);
  }
}

// Cells of [0, m] x [0, n] with j - i > k.
std::size_t CellsAboveBand(std::size_t m, std::size_t n, std::size_t k) {
  if (n <= k) return 0;
  const std::size_t t = n - k;  // row i holds t - i of them, for i < t
  const std::size_t rows = std::min(m + 1, t);
  return rows * t - rows * (rows - 1) / 2;
}

// The cells the scalar entry writes over layers 0 to `last`: the band
// |i - j| <= k of each layer.
std::size_t BandCells(std::size_t m, std::size_t n, std::size_t last) {
  std::size_t cells = 0;
  for (std::size_t k = 0; k <= last; ++k) {
    cells += (m + 1) * (n + 1) - CellsAboveBand(m, n, k) -
             CellsAboveBand(n, m, k);
  }
  return cells;
}

ContextualResult Avx2ContextualLayers(std::string_view x, std::string_view y,
                                      double bound, std::size_t e,
                                      DpWorkspace& ws) {
  const std::size_t m = x.size(), n = y.size();
  const auto scalar = [&] {
    return ScalarSweepKernels().contextual_layers(x, y, bound, e, ws);
  };
  if (n > 127) return scalar();
  // The layers the scan can read: all of them when they fit one register;
  // otherwise up to `ContextualLastLayer`, which wants the length of a path
  // with the fewest insertions. Below max(m, n) the gate's value is d_E; at
  // or above it, it is the cap, and a path that keeps the aligned matches
  // of x and y, substitutes the other aligned symbols and pads with
  // insertions or deletions is a cheap first such path. A register-cell
  // costs about what a scalar cell-layer does, and the scalar entry fills
  // only each layer's band, so pairs whose scan closes after a few layers,
  // near-duplicates, stay there. Only when that path's layers say the lanes
  // pay does d_E, by `MyersLevenshtein`, set the final range.
  std::size_t last = m + n;
  std::size_t registers = 1;
  if (last >= kLayerLanes) {
    const auto lanes_pay = [&](std::size_t p, std::size_t cap) {
      last = ContextualLastLayer(m, n, p, cap);
      registers = last / kLayerLanes + 1;
      return registers <= kMaxLayerRegisters &&
             registers * (m + 1) * (n + 1) <= BandCells(m, n, last);
    };
    if (e < std::max(m, n)) {
      if (!lanes_pay(e, m + n)) return scalar();
    } else {
      std::size_t aligned = m > n ? m - n : n - m;
      for (std::size_t i = 0; i < std::min(m, n); ++i) {
        aligned += x[i] != y[i];
      }
      if (!lanes_pay(aligned, e) ||
          !lanes_pay(MyersLevenshtein(x, y), e)) {
        return scalar();
      }
    }
  }
  alignas(32) std::int8_t lanes[kMaxLayerRegisters * kLayerLanes];
  switch (registers) {
    case 1: FillLayerLanes<1>(x, y, ws, lanes); break;
    case 2: FillLayerLanes<2>(x, y, ws, lanes); break;
    case 3: FillLayerLanes<3>(x, y, ws, lanes); break;
    default: FillLayerLanes<4>(x, y, ws, lanes); break;
  }
  ws.contextual_cells += (m + 1) * (n + 1) * registers;

  ContextualLayerScan scan(m, n, bound);
  scan.Consider(0, lanes[0]);
  for (std::size_t k = 1; k <= m + n && scan.Open(k); ++k) {
    if (k > last) return scalar();  // past the layers filled: rounding only
    scan.Consider(k, lanes[k]);
  }
  return scan.result();
}

}  // namespace

const SweepKernels& Avx2SweepKernels() {
  static const SweepKernels kAvx2 = [] {
    SweepKernels k{};
    k.name = "avx2";
    k.update_lower_dense = Avx2UpdateLowerDense;
    k.update_lower_dense_f32 = Avx2UpdateLowerDenseF32;
    k.update_lower_dense_f16 = Avx2UpdateLowerDenseF16;
    k.update_lower_dense_u8 = Avx2UpdateLowerDenseU8;
    k.update_lower_rows = Avx2UpdateLowerRows;
    k.fill_absdiff_bounds = Avx2FillAbsDiffBounds;
    // No production path compacts: the scalar body serves as the oracle.
    k.eliminate_and_compact = ScalarSweepKernels().eliminate_and_compact;
    k.stream_keys = Avx2StreamKeys;
    k.contextual_diamond = Avx2ContextualDiamond;
    k.contextual_layers = Avx2ContextualLayers;
    return k;
  }();
  return kAvx2;
}

}  // namespace cned

#endif  // defined(__AVX2__)
