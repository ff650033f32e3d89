#include "distances/levenshtein.h"

#include <algorithm>
#include <cmath>
#include <utility>

// Deliberate .cc-level reach into the search layer (both live in the one
// cned library, headers stay acyclic): the sweep-kernel table owns the
// dispatched |Δlen| fill, and dE's zeroth-pivot bound must come from the
// same dispatch point so a forced kernel variant governs the whole sweep.
#include "search/sweep_kernel.h"

namespace cned {

void EditDistance::LengthLowerBounds(std::size_t x_len,
                                     const std::uint32_t* y_lens,
                                     std::size_t n, double* out) const {
  ActiveSweepKernels().fill_absdiff_bounds(x_len, y_lens, n, out);
}

std::size_t LevenshteinDistance(std::string_view x, std::string_view y) {
  // Keep the shorter string on the column axis for O(min) space.
  if (x.size() < y.size()) std::swap(x, y);
  const std::size_t m = x.size(), n = y.size();
  std::vector<std::size_t> row(n + 1);
  for (std::size_t j = 0; j <= n; ++j) row[j] = j;
  for (std::size_t i = 1; i <= m; ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= n; ++j) {
      std::size_t sub = diag + (x[i - 1] == y[j - 1] ? 0 : 1);
      diag = row[j];
      row[j] = std::min({sub, row[j] + 1, row[j - 1] + 1});
    }
  }
  return row[n];
}

double LevenshteinDistanceBounded(std::string_view x, std::string_view y,
                                  double bound) {
  if (bound <= 0.0) return 0.0;  // every distance is >= 0 >= bound
  if (!(bound <= static_cast<double>(std::max(x.size(), y.size())))) {
    // d_E <= max(|x|, |y|) < bound, or a NaN bound (unbounded): the exact
    // value is always needed.
    return static_cast<double>(MyersLevenshtein(x, y));
  }
  // Largest integer strictly below `bound`: exactness is required only for
  // d_E <= ceil(bound) - 1, and the kernel's overflow value ceil(bound) is
  // itself >= bound. The kernel returns at once when the length gap alone
  // exceeds the band.
  const auto band = static_cast<std::size_t>(std::ceil(bound)) - 1;
  return static_cast<double>(MyersLevenshteinBounded(x, y, band));
}

}  // namespace cned
