#ifndef CNED_COMMON_DP_WORKSPACE_H_
#define CNED_COMMON_DP_WORKSPACE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/aligned_buffer.h"

namespace cned {

/// Reusable scratch buffers for the dynamic-programming distance kernels.
///
/// Every hot kernel (the contextual layered DP, the bit-parallel d_E, the
/// Marzal-Vidal length DP, the weighted edit DP) used to heap-allocate
/// fresh tables on each call — two allocations per evaluation in the
/// contextual case, millions of evaluations per index build. The kernels
/// now borrow these buffers instead: `assign`/`resize` reuse the existing
/// capacity, so after the first few calls of a thread the steady-state path
/// performs zero allocations.
///
/// One instance exists per thread (see `TlsDpWorkspace`), which makes every
/// kernel safe to run concurrently from `ParallelFor` bodies without
/// sharing or locking.
struct DpWorkspace {
  // Contextual layered DP (`SweepKernels::contextual_layers`): two
  // (m+1) x (n+1) layer planes for the scalar form, which fills one layer
  // at a time; for the SIMD form, which keeps every layer of a cell in one
  // vector of int8 lanes, two rows of cells and of the same cells one
  // layer up, and y's symbols broadcast to a vector each. The vectors need
  // their alignment, hence an `AlignedBuffer` (a std::vector of a vector
  // type drops it).
  std::vector<std::int32_t> layer_a;
  std::vector<std::int32_t> layer_b;
  AlignedBuffer<std::int8_t> layer_lanes;
  // Cells the contextual DP wrote on this thread
  // (`ContextualCellsEvaluated`, core/contextual.h).
  std::uint64_t contextual_cells = 0;
  // Marzal-Vidal length DP: two (m+1) x (n+1) weight planes.
  std::vector<double> plane_a;
  std::vector<double> plane_b;
  // Rolling row for the weighted-Levenshtein kernel.
  std::vector<double> weight_row;
  // The d_C,h diamond DP (`SweepKernels::contextual_diamond`): three
  // rolling lines of packed (edit distance << 32) | substitutions cells —
  // two rows for the scalar form, three anti-diagonals for the SIMD form —
  // and, for the SIMD form, x and the reversed y widened to one symbol per
  // 64-bit lane and padded, so that a block of lanes reads contiguous
  // symbols and never past either copy.
  std::vector<std::uint64_t> packed_lines[3];
  std::vector<std::uint64_t> diamond_text;
  // Bit-parallel d_E (distances/myers.h): the match table, 256 words per
  // 64-symbol pattern block, all-zero between calls; and the blocked
  // form's per-block vertical-delta words.
  std::vector<std::uint64_t> myers_peq;
  std::vector<std::uint64_t> myers_pv;
  std::vector<std::uint64_t> myers_mv;
};

/// The calling thread's workspace. Buffers grow monotonically with the
/// largest problem seen on the thread and are never shrunk.
DpWorkspace& TlsDpWorkspace();

}  // namespace cned

#endif  // CNED_COMMON_DP_WORKSPACE_H_
