#include "core/contextual_heuristic.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>

#include "common/dp_workspace.h"
#include "common/harmonic.h"
#include "distances/myers.h"
#include "search/sweep_kernel.h"

namespace cned {

// Correctness of the 2-D DP (why this equals ni[m][n][d_E] of Algorithm 1):
// any internal path of total edit length d_E(x,y) through a cell (i,j) must
// use exactly d_E(x[0..i), y[0..j)) operations on its prefix — otherwise
// swapping in a cheaper prefix would beat d_E overall. So a shortest-path
// DP over prefixes loses no path that the full DP would consider at
// k = d_E.
//
// Why one packed (d, S) cell suffices: among paths of length k into
// (i, j), insertions I, deletions D and substitutions S satisfy
// I - D = j - i and I + D + S = k, so I = (k - S + j - i) / 2 and the most
// insertions is the same as the fewest substitutions. Pairs (d, S) under
// lexicographic order, added component-wise, form a totally ordered monoid
// (a <= b implies a + c <= b + c), so the min-plus DP over packed cells
// (`kPackedIndel`, `kPackedSubst`, search/sweep_kernel.h) is a valid
// shortest-path DP. Its value at (m, n) is (d_E, fewest S among minimal
// paths), i.e. the same (k, ni) as a DP that tracks the edit distance and
// the most insertions in separate rows.
//
// The diamond. Let δ = i - j and c = m - n. A path through (i, j) needs at
// least |δ| operations before it and |c - δ| after it, so every cell on a
// path of length d_E has |δ| + |c - δ| <= d_E, i.e. δ in
// [ceil((c - d_E) / 2), floor((c + d_E) / 2)]: d_E + 1 diagonals (d_E when
// c and d_E differ in parity), against the 2 d_E + 1 of the band
// |δ| <= d_E. The kernel (`SweepKernels::contextual_diamond`) fills those
// diagonals, or a few more, and reads every cell it does not fill as
// kPackedOutside, which exceeds every path's value. So the restricted DP's
// value at each filled cell is the best over paths through filled cells,
// never below the true value; and the lexicographically optimal path to
// (m, n) lies inside the diamond, so at (m, n) the restricted value is
// exact. The same holds for any filled superset of the diamond, such as the
// diamond of any e >= d_E; d_E gives the narrowest.
//
// Bounded calls. Let K be the largest edit length whose
// `ContextualCostFloor` is still < bound; the floor never decreases in k
// (see contextual.h), so a result below the bound needs d_E <= K, and the
// floor is computed with the same `ContextualPathCost` arithmetic as the
// final cost, so a path whose cost equals the floor yields the same double
// on both sides of that comparison. The d_E gate that dC uses
// (`ContextualEditLengthGate`) returns +infinity for every call with
// d_E > K before a DP cell is written. When it ran the bit-parallel check
// (K < max(m, n)) it yields d_E itself; otherwise, and for every unbounded
// call, the call runs `MyersLevenshtein` once. Either way the diamond is
// sized by the exact d_E.
namespace {

// The diamond DP and the cost, given d_E(x, y) exactly.
ContextualHeuristicResult Diamond(std::string_view x, std::string_view y,
                                  std::size_t d_e, HarmonicTable& h) {
  const std::uint64_t cell =
      ActiveSweepKernels().contextual_diamond(x, y, d_e, TlsDpWorkspace());
  ContextualHeuristicResult r;
  r.k = static_cast<std::size_t>(cell >> 32);
  const auto subs = static_cast<std::size_t>(cell & 0xffffffffu);
  r.insertions = (r.k - subs + y.size() - x.size()) / 2;
  r.distance = ContextualPathCost(x.size(), y.size(), r.k, r.insertions, h);
  return r;
}

// The evaluator of `ContextualHeuristicEditDistance::Prepare`: the steps of
// `ContextualHeuristicDetailed` with the prepared gate, whose match table
// also gives d_E when the gate skipped its check.
class PreparedHeuristic final : public PreparedDistance {
 public:
  explicit PreparedHeuristic(std::string_view x) : x_(x), gate_(x) {}

  double Bounded(std::string_view y, double bound) override {
    const std::optional<std::size_t> gate = gate_(y, bound);
    if (!gate) return std::numeric_limits<double>::infinity();
    const std::size_t d_e = *gate < std::max(x_.size(), y.size())
                                ? *gate
                                : gate_.EditDistance(y);
    return Diamond(x_, y, d_e, ThreadLocalHarmonic()).distance;
  }

 private:
  std::string_view x_;
  ContextualGate gate_;
};

}  // namespace

ContextualHeuristicResult ContextualHeuristicDetailed(std::string_view x,
                                                      std::string_view y,
                                                      double bound) {
  HarmonicTable& h = ThreadLocalHarmonic();
  // The shared d_E gate (`ContextualEditLengthGate`): rejects d_E > K and
  // otherwise yields d_E when its check ran (a value below max(m, n)), or
  // the cap K >= max(m, n) >= d_E when it did not.
  const std::optional<std::size_t> gate =
      ContextualEditLengthGate(x, y, bound, h);
  if (!gate) {
    ContextualHeuristicResult abandoned;
    abandoned.distance = std::numeric_limits<double>::infinity();
    return abandoned;
  }
  const std::size_t d_e = *gate < std::max(x.size(), y.size())
                              ? *gate
                              : MyersLevenshtein(x, y);
  return Diamond(x, y, d_e, h);
}

std::unique_ptr<PreparedDistance> ContextualHeuristicEditDistance::Prepare(
    std::string_view x) const {
  return std::make_unique<PreparedHeuristic>(x);
}

double ContextualHeuristicDistance(std::string_view x, std::string_view y) {
  return ContextualHeuristicDetailed(x, y).distance;
}

}  // namespace cned
