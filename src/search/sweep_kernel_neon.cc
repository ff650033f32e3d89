// NEON implementations of the sweep kernels (see sweep_kernel.h for the
// semantics every variant must reproduce bit for bit).
//
// AArch64 AdvSIMD is baseline (and these kernels use float64x2 intrinsics
// that exist ONLY on AArch64 — 32-bit ARM NEON is f32/integer), so this
// translation unit needs no special compile flags: CMake includes it on
// AArch64 targets only, and the runtime probe (common/cpu_features.h)
// stays constant-true there.
//
// Scope: the bandwidth-bound passes — the dense row updates and the |Δlen|
// fill — are vectorised (2 double lanes). The blocked row application for
// a group of queries loops over the per-row bodies, query by query. The compaction kernel reuses the
// scalar reference: with 2-wide vectors and no movemask instruction, a NEON
// left-pack buys nothing over the scalar loop that the compiler already
// schedules well, and sharing the scalar code keeps the bit-identity
// argument trivial. The running-max update is written as compare + select
// (not vmaxq, which would propagate NaNs differently from the scalar
// `g > lb ? g : lb`).

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cmath>
#include <cstdint>

#include "search/sweep_kernel.h"
#include "search/table_quant.h"  // HalfToDouble: the shared exact f16 decode

namespace cned {

const SweepKernels& NeonSweepKernels();

namespace {

// Quantized arm max (semantics in sweep_kernel.h): negation is exact, the
// subtraction is the scalar's, and compare+select reproduces the scalar
// ternary `diff > other ? diff : other` including ties.
inline float64x2_t QuantArms(float64x2_t diff, float64x2_t vgap) {
  const float64x2_t other = vsubq_f64(vnegq_f64(diff), vgap);
  return vbslq_f64(vcgtq_f64(diff, other), diff, other);
}

void NeonUpdateLowerDense(double d, const double* row, double* lower,
                          std::size_t n) {
  const float64x2_t vd = vdupq_n_f64(d);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t g = vabsq_f64(vsubq_f64(vd, vld1q_f64(row + i)));
    const float64x2_t lb = vld1q_f64(lower + i);
    // lb = g > lb ? g : lb — exact scalar ternary semantics.
    vst1q_f64(lower + i, vbslq_f64(vcgtq_f64(g, lb), g, lb));
  }
  for (; i < n; ++i) {
    const double g = std::abs(d - row[i]);
    if (g > lower[i]) lower[i] = g;
  }
}

// --- Quantized row kernels. ------------------------------------------------
// Decodes run per lane in scalar (they are exact, so any exact decode
// agrees bitwise; the u8 per-lane `double(code) * scale` is the same one
// rounded multiply in scalar or vector form — and the library builds with
// -ffp-contract=off, so it can never be fused into the vector subtract).
// The arm max and the running-max update are vectorised 2-wide.

void NeonUpdateLowerDenseF32(double d, const float* row, double gap,
                             double* lower, std::size_t n) {
  const float64x2_t vd = vdupq_n_f64(d);
  const float64x2_t vgap = vdupq_n_f64(gap);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t v = vcvt_f64_f32(vld1_f32(row + i));  // exact widen
    const float64x2_t g = QuantArms(vsubq_f64(v, vd), vgap);
    const float64x2_t lb = vld1q_f64(lower + i);
    vst1q_f64(lower + i, vbslq_f64(vcgtq_f64(g, lb), g, lb));
  }
  for (; i < n; ++i) {
    const double diff = static_cast<double>(row[i]) - d;
    const double other = (-diff) - gap;
    const double g = diff > other ? diff : other;
    if (g > lower[i]) lower[i] = g;
  }
}

void NeonUpdateLowerDenseF16(double d, const std::uint16_t* row, double gap,
                             double* lower, std::size_t n) {
  const float64x2_t vd = vdupq_n_f64(d);
  const float64x2_t vgap = vdupq_n_f64(gap);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    float64x2_t v = vdupq_n_f64(HalfToDouble(row[i]));
    v = vsetq_lane_f64(HalfToDouble(row[i + 1]), v, 1);
    const float64x2_t g = QuantArms(vsubq_f64(v, vd), vgap);
    const float64x2_t lb = vld1q_f64(lower + i);
    vst1q_f64(lower + i, vbslq_f64(vcgtq_f64(g, lb), g, lb));
  }
  for (; i < n; ++i) {
    const double diff = HalfToDouble(row[i]) - d;
    const double other = (-diff) - gap;
    const double g = diff > other ? diff : other;
    if (g > lower[i]) lower[i] = g;
  }
}

void NeonUpdateLowerDenseU8(double d, const std::uint8_t* row, double scale,
                            double offset, double gap, double* lower,
                            std::size_t n) {
  const double dq = d - offset;  // once per call, as in the scalar kernel
  const float64x2_t vdq = vdupq_n_f64(dq);
  const float64x2_t vgap = vdupq_n_f64(gap);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    float64x2_t m = vdupq_n_f64(static_cast<double>(row[i]) * scale);
    m = vsetq_lane_f64(static_cast<double>(row[i + 1]) * scale, m, 1);
    const float64x2_t g = QuantArms(vsubq_f64(m, vdq), vgap);
    const float64x2_t lb = vld1q_f64(lower + i);
    vst1q_f64(lower + i, vbslq_f64(vcgtq_f64(g, lb), g, lb));
  }
  for (; i < n; ++i) {
    const double m = static_cast<double>(row[i]) * scale;
    const double diff = m - dq;
    const double other = (-diff) - gap;
    const double g = diff > other ? diff : other;
    if (g > lower[i]) lower[i] = g;
  }
}

void NeonFillAbsDiffBounds(std::size_t x_len, const std::uint32_t* y_lens,
                           std::size_t n, double* out) {
  const float64x2_t vx = vdupq_n_f64(static_cast<double>(x_len));
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    // u32 -> u64 -> double is exact for the full 32-bit range.
    const float64x2_t y =
        vcvtq_f64_u64(vmovl_u32(vld1_u32(y_lens + i)));
    vst1q_f64(out + i, vabsq_f64(vsubq_f64(vx, y)));
  }
  for (; i < n; ++i) {
    const std::size_t y = y_lens[i];
    out[i] = x_len > y ? static_cast<double>(x_len - y)
                       : static_cast<double>(y - x_len);
  }
}

void NeonUpdateLowerRows(const QuantTableView& table,
                         const std::size_t* ranks, std::size_t rows,
                         const double* d, std::size_t queries,
                         double* const* lower, std::size_t n) {
  UpdateLowerRowsPerRow(NeonSweepKernels(), table, ranks, rows, d, queries,
                        lower, n);
}

}  // namespace

const SweepKernels& NeonSweepKernels() {
  static const SweepKernels kNeon = [] {
    // Compaction, the stream keys and the d_C,h diamond stay scalar.
    SweepKernels k = ScalarSweepKernels();
    k.name = "neon";
    k.update_lower_dense = NeonUpdateLowerDense;
    k.update_lower_dense_f32 = NeonUpdateLowerDenseF32;
    k.update_lower_dense_f16 = NeonUpdateLowerDenseF16;
    k.update_lower_dense_u8 = NeonUpdateLowerDenseU8;
    k.update_lower_rows = NeonUpdateLowerRows;
    k.fill_absdiff_bounds = NeonFillAbsDiffBounds;
    return k;
  }();
  return kNeon;
}

}  // namespace cned

#endif  // defined(__aarch64__)
