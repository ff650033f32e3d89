#ifndef CNED_DISTANCES_MYERS_H_
#define CNED_DISTANCES_MYERS_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

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

/// One pattern's match table, built once, for many bounded d_E calls: the
/// prepared contextual gate (`ContextualGate`, core/contextual.h) holds
/// its query's. The pattern is always the one down the columns, also when
/// it is the longer string: the end diagonal then starts at row m - n of
/// the first column instead of column n - m of the top row. d_E is the
/// same either way, so every call returns what `MyersLevenshteinBounded`
/// returns. Not for concurrent use: a blocked pattern keeps its block
/// vectors here.
class MyersPattern {
 public:
  explicit MyersPattern(std::string_view pattern);

  /// MyersLevenshteinBounded(pattern, text, bound).
  std::size_t Bounded(std::string_view text, std::size_t bound);

 private:
  std::size_t m_;
  std::size_t blocks_;
  std::vector<std::uint64_t> peq_;  // 256 words per 64-symbol block
  std::vector<std::uint64_t> pv_, mv_;
};

}  // namespace cned

#endif  // CNED_DISTANCES_MYERS_H_
