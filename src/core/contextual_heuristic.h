#ifndef CNED_CORE_CONTEXTUAL_HEURISTIC_H_
#define CNED_CORE_CONTEXTUAL_HEURISTIC_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
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
/// Algorithm 1 — see the proof sketch in contextual_heuristic.cc. The call
/// takes d_E from the bit-parallel kernel first (distances/myers.h) and
/// fills only the diamond of cells a path of length d_E can pass: d_E + 1
/// diagonals, against the full table's |x| + |y| + 1. The fill is the
/// `contextual_diamond` entry of the active sweep-kernel variant
/// (search/sweep_kernel.h): row by row in scalar, along anti-diagonals in
/// AVX2, the same bits either way.
struct ContextualHeuristicResult {
  double distance = 0.0;       ///< d_C,h(x, y)
  std::size_t k = 0;           ///< d_E(x, y)
  std::size_t insertions = 0;  ///< max insertions among minimal paths
};

/// d_C,h(x, y) with decomposition. When `bound` is finite the call first
/// takes the edit-length cap K (`ContextualEditLengthCap`): a result below
/// the bound needs d_E <= K. It then runs the same bit-parallel d_E gate as
/// `ContextualDistanceDetailed` (`ContextualEditLengthGate`), which returns
/// distance = +infinity before the DP is touched when d_E > K and
/// otherwise yields d_E, which sizes the diamond. A call whose gate skipped
/// the check (K >= max(|x|, |y|), every unbounded call among them) runs the
/// bit-parallel d_E once instead. The result is identical to the unbounded
/// one whenever d_C,h(x, y) < bound — the `StringDistance::DistanceBounded`
/// contract; otherwise `distance` is >= bound and only `distance` is
/// meaningful (`k` and `insertions` of an abandoned result are
/// unspecified). `ContextualHeuristicEditDistance::Prepare` runs the same
/// steps with the prepared gate (`ContextualGate`).
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
  /// The evaluator runs the prepared gate (`ContextualGate`, which also
  /// gives d_E when the gate skips its check) and then the same diamond
  /// DP as `DistanceBounded`.
  std::unique_ptr<PreparedDistance> Prepare(std::string_view x) const override;
  /// No length-only bound is known (the base default of 0.0); overridden
  /// as one flat fill so the zeroth-pivot pass of a LAESA sweep makes no
  /// per-entry virtual calls.
  void LengthLowerBounds(std::size_t, const std::uint32_t*, std::size_t n,
                         double* out) const override {
    std::fill_n(out, n, 0.0);
  }
  std::string name() const override { return "dC,h"; }
  bool is_metric() const override { return false; }
};

}  // namespace cned

#endif  // CNED_CORE_CONTEXTUAL_HEURISTIC_H_
