#ifndef CNED_METRIC_METRIC_VALIDATOR_H_
#define CNED_METRIC_METRIC_VALIDATOR_H_

#include <optional>
#include <string>
#include <vector>

#include "distances/distance.h"

namespace cned {

/// A witness that the triangle inequality fails:
/// d(x,z) > d(x,y) + d(y,z) by `margin`.
struct TriangleViolation {
  std::string x, y, z;
  double dxy = 0.0, dyz = 0.0, dxz = 0.0;
  double margin = 0.0;
};

/// Checks the triangle inequality of `dist` over all ordered triples from
/// `sample`. Returns the worst violation found, or nullopt when every
/// triple holds within `tol`.
///
/// This is how the tests reproduce the paper's §2.2 counterexamples
/// (d_sum/d_max/d_min are not metrics) and corroborate Theorem 1 (d_C is).
std::optional<TriangleViolation> FindTriangleViolation(
    const StringDistance& dist, const std::vector<std::string>& sample,
    double tol = 1e-9);

}  // namespace cned

#endif  // CNED_METRIC_METRIC_VALIDATOR_H_
