#ifndef CNED_CORE_CONTEXTUAL_H_
#define CNED_CORE_CONTEXTUAL_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/harmonic.h"
#include "common/rational.h"
#include "distances/distance.h"
#include "distances/myers.h"

namespace cned {

/// Decomposition of an optimal canonical contextual path.
///
/// By the paper's Lemma 1 an optimal path of edit length `k` performs all
/// `insertions` first, then all `substitutions` (on the longest intermediate
/// string), then all `deletions`. The counts satisfy
/// `k = insertions + substitutions + deletions` and
/// `deletions = |x| - |y| + insertions`.
struct ContextualResult {
  double distance = 0.0;      ///< d_C(x, y)
  std::size_t k = 0;          ///< edit length of the optimal canonical path
  std::size_t insertions = 0; ///< ni
  std::size_t substitutions = 0;  ///< ns
  std::size_t deletions = 0;  ///< nd
};

/// Closed-form cost of a canonical contextual path from a length-`m` string
/// to a length-`n` string with edit length `k` and `ni` insertions:
///
///   sum_{i=m+1}^{m+ni} 1/i  +  ns/(m+ni)  +  sum_{i=n+1}^{n+nd} 1/i
///
/// with nd = m - n + ni and ns = k - ni - nd. Throws std::invalid_argument
/// when (m, n, k, ni) is not a valid decomposition (nd < 0 or ns < 0).
double ContextualPathCost(std::size_t m, std::size_t n, std::size_t k,
                          std::size_t ni, HarmonicTable& harmonic);

/// The lowest contextual cost of any canonical path from a length-`m` string
/// to a length-`n` string whose edit length is at least `k`:
///
///   ContextualPathCost(m, n, k', (k' + n - m) / 2),  k' = max(k, |m - n|)
///
/// i.e. the path of length k' with the most insertions (and so at most one
/// substitution). It is exact, not just a bound, on three facts:
///
///  - At fixed k the cost does not increase with the insertion count: one
///    more insertion and deletion replace two substitutions, and then the
///    new insertion, the new deletion and every remaining substitution
///    cost 1/(m+ni+1), where each substitution cost 1/(m+ni) before.
///  - The floor never decreases in k. From a length whose floor path has
///    no substitution, the next length adds one, 1/(m+ni); the length
///    after that trades it for an insertion and a deletion, adding
///    (m+ni-1)/((m+ni)(m+ni+1)) >= 0.
///  - No path is shorter than |m - n|.
///
/// Both contextual kernels stop on this floor. It is computed with the same
/// `ContextualPathCost` arithmetic as their final costs, so a path whose
/// cost equals the floor produces the same `double`. Requires
/// k <= m + n.
double ContextualCostFloor(std::size_t m, std::size_t n, std::size_t k,
                           HarmonicTable& harmonic);

/// The edit-length cap of a bounded contextual call: the largest edit
/// length K whose `ContextualCostFloor(m, n, K)` is still < `bound`, found
/// by binary search over [|m - n|, m + n] (the floor never decreases in k).
/// Any path of edit length > K costs >= `bound`, so a result below the
/// bound needs d_E <= K. Returns std::nullopt when even the floor at
/// |m - n| reaches the bound (no result below it exists), and m + n —
/// every length — when `bound` is +infinity or NaN (an unbounded call).
std::optional<std::size_t> ContextualEditLengthCap(std::size_t m,
                                                   std::size_t n, double bound,
                                                   HarmonicTable& harmonic);

/// The d_E gate that both bounded contextual kernels run before touching
/// their DP. It takes the cap K (`ContextualEditLengthCap`) and, when K is
/// below max(|x|, |y|) (d_E never exceeds that), decides d_E > K with the
/// bit-parallel `MyersLevenshteinBounded`. Returns std::nullopt when no
/// result below `bound` can exist: there is no cap, or d_E > K. Otherwise
/// returns a B with d_E <= B <= K: d_E itself when the check ran, K when
/// it did not, so a B below max(|x|, |y|) is exactly d_E. Unbounded and
/// NaN bounds give K = m + n and skip the check. `ContextualGate` is the
/// same gate with x prepared, for the many calls of one query.
std::optional<std::size_t> ContextualEditLengthGate(std::string_view x,
                                                    std::string_view y,
                                                    double bound,
                                                    HarmonicTable& harmonic);

/// `ContextualEditLengthGate` with its query x prepared: the gate of both
/// contextual evaluators (`StringDistance::Prepare`). It keeps two things
/// across calls:
///
///  - x's Myers match table (`MyersPattern`), built on the first check,
///    with x always as the pattern. When x is the longer string the end
///    diagonal starts at row |x| - |y|. The gate's value is exact d_E when
///    d_E <= K and K + 1 otherwise, so it does not depend on which string
///    is the pattern;
///  - the cap K per candidate length for the current bound. Each entry is
///    filled on first use by `ContextualEditLengthCap` itself, and the
///    entries are dropped when the bound changes, so every cap is the one
///    the unprepared gate computes.
///
/// Every call therefore returns what `ContextualEditLengthGate` returns.
/// One thread at a time; `x` must outlive it.
class ContextualGate {
 public:
  explicit ContextualGate(std::string_view x) : x_(x) {}

  /// ContextualEditLengthGate(x, y, bound, ThreadLocalHarmonic()).
  std::optional<std::size_t> operator()(std::string_view y, double bound);

  /// d_E(x, y), exact.
  std::size_t EditDistance(std::string_view y);

 private:
  static constexpr std::size_t kNoCap = ~std::size_t{0};

  /// ContextualEditLengthCap(|x|, n, bound), kNoCap for std::nullopt, from
  /// the table of the current bound (a finite one).
  std::size_t Cap(std::size_t n, double bound);
  MyersPattern& Pattern();

  std::string_view x_;
  std::optional<MyersPattern> pattern_;
  // caps_[n] holds the cap of length n when stamps_[n] == stamp_, the
  // generation of `cap_bound_`.
  double cap_bound_ = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t stamp_ = 0;
  std::vector<std::size_t> caps_;
  std::vector<std::uint64_t> stamps_;
};

/// Exact-rational version of `ContextualPathCost` (for property tests that
/// must be free of floating-point noise). Only valid while the reduced
/// fraction fits in 64 bits — fine for strings of total length <= ~40.
Rational ContextualPathCostExact(std::size_t m, std::size_t n, std::size_t k,
                                 std::size_t ni);

/// The max-insertion profile of the paper's Algorithm 1: element k of the
/// returned vector is the maximum number of insertions over internal edit
/// paths of edit length k from `x` to `y`, or -1 when no such path exists.
/// The vector has |x|+|y|+1 entries.
///
/// Runs the layered DP in O(|x|·|y|·(|x|+|y|)) time and O(|x|·|y|) space
/// (the quadratic-space refinement the paper mentions).
std::vector<std::int32_t> MaxInsertionProfile(std::string_view x,
                                              std::string_view y);

/// Algorithm 1's scan over the layers of the final cell (|x|, |y|), shared
/// by every variant of the layered DP (`SweepKernels::contextual_layers`,
/// search/sweep_kernel.h) so that all of them return the same
/// `ContextualResult` bit for bit. Layer k's most insertions ni is a
/// canonical path of cost `ContextualPathCost(m, n, k, ni)`; the scan keeps
/// the first strictly cheapest layer. Layer 0 is always looked at; a layer
/// k >= 1 only while it is `Open`.
class ContextualLayerScan {
 public:
  /// Uses the calling thread's `ThreadLocalHarmonic()`.
  ContextualLayerScan(std::size_t m, std::size_t n, double bound);

  /// False once no path of edit length >= k can give a result the caller
  /// uses: `ContextualCostFloor(m, n, k)` exceeds the best cost so far or
  /// reaches the bound. The floor never decreases in k, so a scan stops at
  /// the first closed layer.
  bool Open(std::size_t k);

  /// Takes layer k's most insertions (negative: no path of edit length k)
  /// when its cost is strictly below the best so far.
  void Consider(std::size_t k, std::int32_t ni);

  /// The best path so far; distance +infinity before any.
  const ContextualResult& result() const { return best_; }

 private:
  std::size_t m_, n_;
  double bound_;
  HarmonicTable& h_;
  ContextualResult best_;
};

/// The last layer a `ContextualLayerScan` of (m, n) can open when some
/// path of edit length `p` has the fewest insertions, max(0, n - m) — p =
/// d_E(x, y) is one such length — and the scan closes at `cap` + 1 on its
/// bound (pass m + n when it does not): a DP that fills layers 0 to this
/// one holds every layer the scan reads. Layer p then holds at least
/// max(0, n - m) insertions, and at a fixed length more insertions cost no
/// more (contextual.h), so once the scan has passed layer p its best cost
/// is at most C = `ContextualPathCost(m, n, p, max(0, n - m))`, and it
/// closes at the first layer whose floor exceeds C. Returns the smaller of
/// the two stops; requires d_E <= p <= cap. It holds in exact arithmetic;
/// a DP that fills only these layers still checks that the scan closed
/// before the next one.
std::size_t ContextualLastLayer(std::size_t m, std::size_t n, std::size_t p,
                               std::size_t cap);

/// d_C(x, y) with the optimal decomposition. Exact Algorithm 1: a layered
/// DP whose layer k holds, per cell, the most insertions over internal
/// paths of edit length k, and a `ContextualLayerScan` over the final
/// cell. The DP is the `contextual_layers` entry of the active sweep-kernel
/// variant (search/sweep_kernel.h), and every variant returns the same
/// `ContextualResult` bit for bit:
///
///  - the scalar entry fills one layer at a time over the band of cells
///    with |i - j| <= k (no other cell is reachable at layer k: insertions
///    minus deletions along the prefix is j - i while their sum is at most
///    k), so a layer costs O(min(|x|·|y|, k·(|x|+|y|))), and it stops
///    filling once the scan closes: no path of edit length >= k costs less
///    than `ContextualCostFloor(|x|, |y|, k)`;
///  - the AVX2 entry turns the DP around: each cell is a vector of int8
///    layers, up to `ContextualLastLayer` of them, and one O(|x|·|y|) pass
///    over the cells fills every layer at once, which the scan then reads.
///    It takes the pairs with |y| <= 127, so that a most-insertions count
///    fits a lane, whose layers fit four vectors in fewer cells than the
///    scalar entry's bands hold, and hands the others to the scalar entry.
///
/// Bounded evaluation: when `bound` is finite the call first takes the
/// edit-length cap K (`ContextualEditLengthCap`). Every canonical path has
/// edit length >= d_E(x,y) and the floor never decreases in k, so
/// d_C >= floor(d_E): the call returns +infinity before touching the DP
/// when the floor at |x|-|y| already reaches `bound`, or when the
/// bit-parallel d_E gate (`ContextualEditLengthGate`) finds d_E > K. The
/// heuristic d_C,h runs the same gate (contextual_heuristic.h). A call that
/// passes runs the DP, whose scan also stops once the floor reaches
/// `bound`. The result is exact whenever d_C(x,y) < bound and otherwise any
/// value >= bound (possibly +infinity) — the `DistanceBounded` contract.
/// `ContextualEditDistance::Prepare` runs the same steps with the prepared
/// gate (`ContextualGate`), so its calls return the same bits.
///
/// The DP's rows and planes come from the calling thread's `DpWorkspace`,
/// so the steady-state path performs no heap allocations and the kernel is
/// safe to call concurrently from ParallelFor bodies.
ContextualResult ContextualDistanceDetailed(
    std::string_view x, std::string_view y,
    double bound = std::numeric_limits<double>::infinity());

/// DP cells written by the contextual DP on this thread since the last
/// `ResetContextualCellsEvaluated()`: (i, j, k) cells for the scalar entry,
/// which fills one layer at a time, and (i, j, register) cells for the
/// AVX2 entry, whose registers hold 32 layers each. Either way it is
/// positive exactly when a call ran the DP, and a call the gate rejects
/// adds nothing. Instrumentation for the bounded-kernel bench; one add per
/// layer or per call.
std::uint64_t ContextualCellsEvaluated();
void ResetContextualCellsEvaluated();

/// d_C(x, y): `ContextualDistanceDetailed` without a bound.
double ContextualDistance(std::string_view x, std::string_view y);

/// d_C(x, y) as an exact rational (small strings only; see
/// `ContextualPathCostExact`).
Rational ContextualDistanceExact(std::string_view x, std::string_view y);

/// `StringDistance` adapter for the exact contextual distance (a proven
/// metric, paper Theorem 1).
class ContextualEditDistance final : public StringDistance {
 public:
  double Distance(std::string_view x, std::string_view y) const override {
    return ContextualDistance(x, y);
  }
  double DistanceBounded(std::string_view x, std::string_view y,
                         double bound) const override {
    return ContextualDistanceDetailed(x, y, bound).distance;
  }
  /// The evaluator runs the prepared gate (`ContextualGate`) and then the
  /// same DP as `DistanceBounded`.
  std::unique_ptr<PreparedDistance> Prepare(std::string_view x) const override;
  /// No length-only bound is known (the base default of 0.0); overridden
  /// as one flat fill so the zeroth-pivot pass of a LAESA sweep makes no
  /// per-entry virtual calls.
  void LengthLowerBounds(std::size_t, const std::uint32_t*, std::size_t n,
                         double* out) const override {
    std::fill_n(out, n, 0.0);
  }
  std::string name() const override { return "dC"; }
  bool is_metric() const override { return true; }
};

}  // namespace cned

#endif  // CNED_CORE_CONTEXTUAL_H_
