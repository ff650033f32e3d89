#ifndef CNED_TESTS_PACKED_ROW_UPDATE_H_
#define CNED_TESTS_PACKED_ROW_UPDATE_H_

// The packed row update the compaction-driven LAESA sweeps used before the
// lazy sweep's pivot phase became one dense pass over the pivot block:
// sweep_order_test's reference sweep tightens every live bound with it at
// each pivot visit, and sweep_kernel_test holds it, bit for bit, to every
// kernel variant's dense update.

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "search/table_quant.h"

namespace cned {

/// For r in [0, live): lower[r] = max(lower[r], g(row[idx[r] - base])),
/// with g the precision's per-entry bound from sweep_kernel.h and the
/// dense kernels' tie handling (`if (g > lb)`), op for op the dense
/// entry's arithmetic. `base` is the segment base, so the global ids in
/// `idx` index the segment-local row `rank` of an n-wide table.
inline void PackedRowUpdate(const QuantTableView& view, std::size_t rank,
                            std::size_t n, double d, const std::uint32_t* idx,
                            std::uint32_t base, double* lower,
                            std::size_t live) {
  const std::size_t first = rank * n;
  const QuantRowMeta* m = view.rows == nullptr ? nullptr : view.rows + rank;
  const double dq = m == nullptr ? d : d - m->offset;  // u8: once per call
  for (std::size_t r = 0; r < live; ++r) {
    const std::size_t j = first + (idx[r] - base);
    double g = 0.0;
    switch (view.precision) {
      case TablePrecision::kF64:
        g = std::abs(d - view.f64[j]);
        break;
      case TablePrecision::kF32:
        g = QuantArmMax(
            static_cast<double>(static_cast<const float*>(view.q)[j]) - d,
            m->gap);
        break;
      case TablePrecision::kF16:
        g = QuantArmMax(
            HalfToDouble(static_cast<const std::uint16_t*>(view.q)[j]) - d,
            m->gap);
        break;
      case TablePrecision::kU8: {
        const double v =
            static_cast<double>(static_cast<const std::uint8_t*>(view.q)[j]) *
            m->scale;
        g = QuantArmMax(v - dq, m->gap);
        break;
      }
    }
    if (g > lower[r]) lower[r] = g;
  }
}

}  // namespace cned

#endif  // CNED_TESTS_PACKED_ROW_UPDATE_H_
