#include "core/contextual_heuristic.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/dp_workspace.h"
#include "common/harmonic.h"

namespace cned {
namespace {

// Packed DP cell: (edit distance << 32) | substitutions. Adding two cells
// adds both components, and comparing two cells as integers orders them
// lexicographically by (distance, substitutions).
constexpr std::uint64_t kIndel = std::uint64_t{1} << 32;  // d + 1
constexpr std::uint64_t kSubst = kIndel | 1;              // d + 1, S + 1
// Cells outside the band. Far enough from 2^64 that adding one step cannot
// wrap, and larger than any in-band cell.
constexpr std::uint64_t kOutside = std::uint64_t{1} << 62;

}  // namespace

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
// (a <= b implies a + c <= b + c), so the min-plus DP over packed cells is
// a valid shortest-path DP. Its value at (m, n) is (d_E, fewest S among
// minimal paths), i.e. the same (k, ni) as a DP that tracks the edit
// distance and the most insertions in separate rows.
//
// Bounded calls. Let K be the largest edit length whose
// `ContextualCostFloor` is still < bound; the floor never decreases in k
// (see contextual.h), so a result below the bound needs d_E <= K, and the
// floor is computed with the same `ContextualPathCost` arithmetic as the
// final cost, so a path whose cost equals the floor yields the same double
// on both sides of that comparison. The d_E gate that dC uses
// (`ContextualEditLengthGate`) returns +infinity for every call with
// d_E > K before a DP cell is written, and otherwise yields d_E itself.
// The DP then fills only the diagonal band |i - j| <= B, where B is that
// d_E, or K >= max(m, n) >= d_E when the bit-parallel check was skipped;
// cells outside it read as kOutside. Every cell (i, j) on a path of final length
// d_E has |i - j| <= d(i, j) <= d_E <= B, and band cells whose true d is
// <= B see only band predecessors on their optimal paths, so they are
// exact, and (m, n) is one of them.
ContextualHeuristicResult ContextualHeuristicDetailed(std::string_view x,
                                                      std::string_view y,
                                                      double bound) {
  const std::size_t m = x.size(), n = y.size();
  HarmonicTable& h = ThreadLocalHarmonic();
  ContextualHeuristicResult abandoned;
  abandoned.distance = std::numeric_limits<double>::infinity();

  // The shared d_E gate (`ContextualEditLengthGate`): rejects d_E > K and
  // otherwise yields the band half-width. Unbounded calls (and NaN bounds)
  // get K = m + n and take the full table.
  const std::optional<std::size_t> gate =
      ContextualEditLengthGate(x, y, bound, h);
  if (!gate) return abandoned;
  const std::size_t band = *gate;

  // Rolling rows of packed cells, borrowed from the thread's workspace (no
  // steady-state allocations). Only band cells and the one cell past each
  // row's band end are ever read.
  DpWorkspace& ws = TlsDpWorkspace();
  ws.packed_row.resize(n + 1);
  ws.packed_row_prev.resize(n + 1);
  std::uint64_t* cur = ws.packed_row.data();
  std::uint64_t* prev = ws.packed_row_prev.data();

  {
    const std::size_t jhi = std::min(n, band);
    for (std::size_t j = 0; j <= jhi; ++j) prev[j] = j * kIndel;
    if (jhi < n) prev[jhi + 1] = kOutside;
  }
  for (std::size_t i = 1; i <= m; ++i) {
    const std::size_t jlo = i > band ? i - band : 0;
    const std::size_t jhi = std::min(n, i + band);
    const char xi = x[i - 1];
    std::uint64_t left = kOutside;
    std::size_t j = jlo;
    if (j == 0) {
      left = cur[0] = i * kIndel;  // deletions only
      j = 1;
    }
    for (; j <= jhi; ++j) {
      const std::uint64_t mismatch = xi != y[j - 1];
      std::uint64_t v = prev[j - 1] + (kSubst & (0 - mismatch));
      v = std::min(v, prev[j] + kIndel);
      v = std::min(v, left + kIndel);
      cur[j] = left = v;
    }
    if (jhi < n) cur[jhi + 1] = kOutside;
    std::swap(cur, prev);
  }

  const std::uint64_t cell = prev[n];
  ContextualHeuristicResult r;
  r.k = static_cast<std::size_t>(cell >> 32);
  const auto subs = static_cast<std::size_t>(cell & 0xffffffffu);
  r.insertions = (r.k - subs + n - m) / 2;
  r.distance = ContextualPathCost(m, n, r.k, r.insertions, h);
  return r;
}

double ContextualHeuristicDistance(std::string_view x, std::string_view y) {
  return ContextualHeuristicDetailed(x, y).distance;
}

}  // namespace cned
