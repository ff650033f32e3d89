#ifndef CNED_TESTS_LEVENSHTEIN_MATRIX_H_
#define CNED_TESTS_LEVENSHTEIN_MATRIX_H_

// The full Wagner-Fischer DP matrix: the d_E oracle that levenshtein_test
// holds to `LevenshteinDistance` cell by cell and that length_bound_test
// holds the production kernels to on affix-heavy pairs.

#include <algorithm>
#include <cstddef>
#include <string_view>
#include <vector>

namespace cned {

/// D[i][j] = d_E(x[0..i), y[0..j)), rows |x|+1 by |y|+1.
inline std::vector<std::vector<std::size_t>> LevenshteinMatrix(
    std::string_view x, std::string_view y) {
  const std::size_t m = x.size(), n = y.size();
  std::vector<std::vector<std::size_t>> d(m + 1,
                                          std::vector<std::size_t>(n + 1, 0));
  for (std::size_t i = 0; i <= m; ++i) d[i][0] = i;
  for (std::size_t j = 0; j <= n; ++j) d[0][j] = j;
  for (std::size_t i = 1; i <= m; ++i) {
    for (std::size_t j = 1; j <= n; ++j) {
      const std::size_t sub = d[i - 1][j - 1] + (x[i - 1] == y[j - 1] ? 0 : 1);
      d[i][j] = std::min({sub, d[i - 1][j] + 1, d[i][j - 1] + 1});
    }
  }
  return d;
}

}  // namespace cned

#endif  // CNED_TESTS_LEVENSHTEIN_MATRIX_H_
