#ifndef CNED_DISTANCES_MYERS_H_
#define CNED_DISTANCES_MYERS_H_

#include <algorithm>
#include <cstddef>
#include <string>
#include <string_view>

#include "distances/distance.h"
#include "distances/levenshtein.h"

namespace cned {

/// Bit-parallel Levenshtein distance (Myers 1999, blocked form of Hyyrö
/// 2003): processes 64 DP cells per machine word, giving a ~10-30x speedup
/// over the classic DP for long strings.
///
/// This is a production fast path for the heavy workloads of §4.3 (the
/// normalisations d_sum/d_max/d_min/d_YB only need d_E plus lengths, so all
/// of them accelerate transparently). Exact — property-tested against the
/// reference DP.
std::size_t MyersLevenshtein(std::string_view x, std::string_view y);

/// Bounded bit-parallel d_E: exactly d_E(x, y) when that is <= `bound`,
/// otherwise `bound + 1` — the contract of `BoundedLevenshtein`. Returns at
/// once when ||x| - |y|| > `bound`. Otherwise it runs the shorter string
/// down the columns of the longer one, one 64-bit word when the shorter
/// string fits and the blocked form beyond, and stops at the first column
/// whose end-diagonal cell proves d_E > `bound`; that cell is never below
/// the last-row score minus the remaining columns. The match table and
/// block vectors come from the thread's `DpWorkspace`, so steady-state calls
/// allocate nothing. The contextual kernels' shared d_E gate.
std::size_t MyersLevenshteinBounded(std::string_view x, std::string_view y,
                                    std::size_t bound);

/// `StringDistance` adapter using the bit-parallel engine (same values as
/// `EditDistance`, different constant factor).
class FastEditDistance final : public StringDistance {
 public:
  double Distance(std::string_view x, std::string_view y) const override {
    return static_cast<double>(MyersLevenshtein(x, y));
  }
  double DistanceBounded(std::string_view x, std::string_view y,
                         double bound) const override {
    // A bound wider than the longest string never abandons — stay on the
    // bit-parallel kernel. Tighter bounds switch to the Ukkonen band, which
    // beats even bit-parallelism once the band is narrow; values agree with
    // d_E exactly either way.
    if (bound > static_cast<double>(std::max(x.size(), y.size()))) {
      return Distance(x, y);
    }
    return LevenshteinDistanceBounded(x, y, bound);
  }
  std::string name() const override { return "dE(bitparallel)"; }
  bool is_metric() const override { return true; }
};

}  // namespace cned

#endif  // CNED_DISTANCES_MYERS_H_
