#ifndef CNED_DISTANCES_LEVENSHTEIN_H_
#define CNED_DISTANCES_LEVENSHTEIN_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "distances/distance.h"
#include "distances/myers.h"

namespace cned {

/// Unit-cost Levenshtein (edit) distance d_E, the textbook Wagner-Fischer
/// DP: the minimum number of single-symbol insertions, deletions and
/// substitutions turning `x` into `y` (Wagner & Fischer 1974). O(|x|·|y|)
/// time, O(min(|x|,|y|)) space. The reference the tests hold the production
/// kernel to: the library computes d_E with the bit-parallel
/// `MyersLevenshtein` (distances/myers.h) and never calls this.
std::size_t LevenshteinDistance(std::string_view x, std::string_view y);

/// d_E under a real-valued bound: the one mapping of a real bound onto the
/// integer band of `MyersLevenshteinBounded`, shared by dE and the four
/// normalisations (distances/normalized.h). Returns exactly d_E(x,y) when
/// that is < `bound`. Otherwise returns ceil(`bound`) when `bound` > 0 (d_E
/// is an integer, so it is < `bound` iff it is <= ceil(`bound`) - 1, the
/// band), and 0 when `bound` <= 0; either way an integer >= `bound`, which a
/// normalisation monotone in d_E maps back to a value >= its own bound. A
/// NaN bound, or one above max(|x|, |y|), gives the exact value.
double LevenshteinDistanceBounded(std::string_view x, std::string_view y,
                                  double bound);

/// `StringDistance` adapter for d_E, on the bit-parallel kernel.
class EditDistance final : public StringDistance {
 public:
  double Distance(std::string_view x, std::string_view y) const override {
    return static_cast<double>(MyersLevenshtein(x, y));
  }
  double DistanceBounded(std::string_view x, std::string_view y,
                         double bound) const override {
    return LevenshteinDistanceBounded(x, y, bound);
  }
  /// |len(x) - len(y)| <= d_E: each unit of length gap needs one indel.
  double LengthLowerBound(std::size_t x_len, std::size_t y_len) const override {
    return x_len > y_len ? static_cast<double>(x_len - y_len)
                         : static_cast<double>(y_len - x_len);
  }
  /// Batched |Δlen| fill over a store's packed length array. Runs on the
  /// dispatched sweep-kernel layer (search/sweep_kernel.h): the zeroth-pivot
  /// fill of the LAESA sweeps is exactly this kernel, with scalar/AVX2
  /// variants producing bit-identical doubles (every value involved is an
  /// exactly representable integer). Defined in levenshtein.cc so this
  /// header stays free of the search-layer include.
  void LengthLowerBounds(std::size_t x_len, const std::uint32_t* y_lens,
                         std::size_t n, double* out) const override;
  std::string name() const override { return "dE"; }
  bool is_metric() const override { return true; }
};

}  // namespace cned

#endif  // CNED_DISTANCES_LEVENSHTEIN_H_
