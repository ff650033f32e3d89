#ifndef CNED_CORE_CONTEXTUAL_HEURISTIC_H_
#define CNED_CORE_CONTEXTUAL_HEURISTIC_H_

#include <cstddef>
#include <limits>
#include <string>
#include <string_view>

#include "core/contextual.h"
#include "distances/distance.h"

namespace cned {

/// The paper's fast heuristic d_C,h (§4.1).
///
/// Instead of evaluating the max-insertion DP at every edit length k, the
/// heuristic evaluates the contextual cost formula only at the *minimal*
/// feasible k — the plain edit distance d_E(x,y) — with the maximum number
/// of insertions among minimal-length internal paths. This costs O(|x|·|y|)
/// like the classic edit DP.
///
/// Guarantees: d_C(x,y) <= d_C,h(x,y) always (the exact value minimises over
/// a superset of candidates), with equality in ~90% of benchmark cases per
/// the paper (reproduced by bench/sec41_heuristic_agreement).
///
/// Every minimal-edit-length path is prefix-minimal in every cell, so a 2-D
/// DP over packed (edit distance, substitutions) cells, minimised
/// lexicographically, computes exactly ni[|x|][|y|][d_E] of the full
/// Algorithm 1 — see the proof sketch in contextual_heuristic.cc.
struct ContextualHeuristicResult {
  double distance = 0.0;       ///< d_C,h(x, y)
  std::size_t k = 0;           ///< d_E(x, y)
  std::size_t insertions = 0;  ///< max insertions among minimal paths
};

/// d_C,h(x, y) with decomposition. When `bound` is finite the DP fills only
/// the diagonal band |i - j| <= K, where K is the largest edit length whose
/// `ContextualCostFloor` is still < bound, and abandons (returning
/// distance = +infinity) as soon as a row proves d_E > K — the
/// `StringDistance::DistanceBounded` contract. The result is identical to
/// the unbounded one whenever d_C,h(x, y) < bound; otherwise `distance` is
/// >= bound and only `distance` is meaningful (`k` and `insertions` of an
/// abandoned result are unspecified).
ContextualHeuristicResult ContextualHeuristicDetailed(
    std::string_view x, std::string_view y,
    double bound = std::numeric_limits<double>::infinity());

/// d_C,h(x, y).
double ContextualHeuristicDistance(std::string_view x, std::string_view y);

/// `StringDistance` adapter.
///
/// `is_metric` is false: the heuristic equals the metric d_C only on ~90% of
/// pairs, so the triangle inequality is not *guaranteed* (the paper
/// nevertheless uses it inside LAESA, as do our experiment harnesses,
/// because the deviation is tiny; reproduce that deliberately).
class ContextualHeuristicEditDistance final : public StringDistance {
 public:
  double Distance(std::string_view x, std::string_view y) const override {
    return ContextualHeuristicDistance(x, y);
  }
  double DistanceBounded(std::string_view x, std::string_view y,
                         double bound) const override {
    return ContextualHeuristicDetailed(x, y, bound).distance;
  }
  std::string name() const override { return "dC,h"; }
  bool is_metric() const override { return false; }
};

}  // namespace cned

#endif  // CNED_CORE_CONTEXTUAL_HEURISTIC_H_
