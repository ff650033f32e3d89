#ifndef CNED_DISTANCES_MYERS_H_
#define CNED_DISTANCES_MYERS_H_

#include <cstddef>
#include <string_view>

namespace cned {

/// Bit-parallel Levenshtein distance (Myers 1999, blocked form of Hyyrö
/// 2003): 64 DP cells per machine word. The library's one d_E kernel:
/// `EditDistance`, the four normalisations d_sum/d_max/d_min/d_YB (which
/// only need d_E plus lengths) and the contextual kernels' d_E gate all run
/// it. Exact; property-tested against the reference DP
/// `LevenshteinDistance`.
std::size_t MyersLevenshtein(std::string_view x, std::string_view y);

/// Bounded bit-parallel d_E: exactly d_E(x, y) when that is <= `bound`,
/// otherwise `bound + 1`. Returns at once when ||x| - |y|| > `bound`.
/// Otherwise it runs the shorter string down the columns of the longer one,
/// one 64-bit word when the shorter string fits and the blocked form beyond,
/// and stops at the first column whose end-diagonal cell proves
/// d_E > `bound`; that cell is never below the last-row score minus the
/// remaining columns. The match table and block vectors come from the
/// thread's `DpWorkspace`, so steady-state calls allocate nothing. Real
/// bounds reach it through `LevenshteinDistanceBounded`
/// (distances/levenshtein.h); the contextual gate passes its integer cap.
std::size_t MyersLevenshteinBounded(std::string_view x, std::string_view y,
                                    std::size_t bound);

}  // namespace cned

#endif  // CNED_DISTANCES_MYERS_H_
