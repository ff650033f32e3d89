#ifndef CNED_DISTANCES_LEVENSHTEIN_H_
#define CNED_DISTANCES_LEVENSHTEIN_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "distances/distance.h"

namespace cned {

/// Unit-cost Levenshtein (edit) distance d_E.
///
/// The minimum number of single-symbol insertions, deletions and
/// substitutions turning `x` into `y` (Wagner & Fischer 1974). O(|x|·|y|)
/// time, O(min(|x|,|y|)) space.
std::size_t LevenshteinDistance(std::string_view x, std::string_view y);

/// Banded variant: returns the exact distance if it is <= `bound`, otherwise
/// any value > `bound` (early exit). Useful for heavy NN workloads.
std::size_t BoundedLevenshtein(std::string_view x, std::string_view y,
                               std::size_t bound);

/// Real-valued wrapper with the `StringDistance::DistanceBounded` contract:
/// exactly d_E(x,y) when that is < `bound`, otherwise any value >= `bound`.
/// Maps the real bound onto the integer Ukkonen band; a NaN bound is
/// unbounded (the exact value).
double LevenshteinDistanceBounded(std::string_view x, std::string_view y,
                                  double bound);

/// The full DP matrix D[i][j] = d_E(x[0..i), y[0..j)), rows |x|+1 by |y|+1.
/// Exposed because the Marzal-Vidal and contextual computations, tests and
/// teaching examples need the intermediate values.
std::vector<std::vector<std::size_t>> LevenshteinMatrix(std::string_view x,
                                                        std::string_view y);

/// `StringDistance` adapter for d_E.
class EditDistance final : public StringDistance {
 public:
  double Distance(std::string_view x, std::string_view y) const override {
    return static_cast<double>(LevenshteinDistance(x, y));
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
  /// fill of the LAESA sweeps is exactly this kernel, with scalar/AVX2/NEON
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
