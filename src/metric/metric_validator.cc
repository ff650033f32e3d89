#include "metric/metric_validator.h"

namespace cned {

std::optional<TriangleViolation> FindTriangleViolation(
    const StringDistance& dist, const std::vector<std::string>& sample,
    double tol) {
  const std::size_t n = sample.size();
  // Cache the pairwise matrix: O(n^2) distance calls instead of O(n^3).
  std::vector<std::vector<double>> d(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      d[i][j] = d[j][i] = dist.Distance(sample[i], sample[j]);
    }
  }
  std::optional<TriangleViolation> worst;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      for (std::size_t k = 0; k < n; ++k) {
        if (k == i || k == j) continue;
        double margin = d[i][k] - (d[i][j] + d[j][k]);
        if (margin > tol && (!worst || margin > worst->margin)) {
          worst = TriangleViolation{sample[i], sample[j], sample[k],
                                    d[i][j],   d[j][k],   d[i][k],
                                    margin};
        }
      }
    }
  }
  return worst;
}

}  // namespace cned
