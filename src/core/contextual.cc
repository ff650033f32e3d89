#include "core/contextual.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/dp_workspace.h"
#include "distances/myers.h"

namespace cned {
namespace {

// "Minus infinity" for the insertion-count DP. Far enough from INT32_MIN
// that adding +1 per layer (at most |x|+|y| times) cannot wrap.
constexpr std::int32_t kNegInf = std::numeric_limits<std::int32_t>::min() / 4;

thread_local std::uint64_t tls_cells_evaluated = 0;

void ValidateDecomposition(std::size_t m, std::size_t n, std::size_t k,
                           std::size_t ni) {
  if (m + ni < n) {
    throw std::invalid_argument("ContextualPathCost: negative deletion count");
  }
  std::size_t nd = m + ni - n;
  if (ni + nd > k) {
    throw std::invalid_argument("ContextualPathCost: k too small for ni");
  }
}

}  // namespace

double ContextualPathCost(std::size_t m, std::size_t n, std::size_t k,
                          std::size_t ni, HarmonicTable& harmonic) {
  ValidateDecomposition(m, n, k, ni);
  const std::size_t nd = m + ni - n;
  const std::size_t ns = k - ni - nd;
  double cost = harmonic.Range(m + 1, m + ni);  // insertions on a growing string
  if (ns > 0) {
    // All substitutions happen on the longest intermediate string (Lemma 1).
    cost += static_cast<double>(ns) / static_cast<double>(m + ni);
  }
  cost += harmonic.Range(n + 1, n + nd);  // deletions on a shrinking string
  return cost;
}

double ContextualCostFloor(std::size_t m, std::size_t n, std::size_t k,
                           HarmonicTable& harmonic) {
  const std::size_t kk = std::max(k, m > n ? m - n : n - m);
  return ContextualPathCost(m, n, kk, (kk + n - m) / 2, harmonic);
}

std::optional<std::size_t> ContextualEditLengthCap(std::size_t m,
                                                   std::size_t n, double bound,
                                                   HarmonicTable& harmonic) {
  if (!(bound < std::numeric_limits<double>::infinity())) return m + n;
  std::size_t lo = m > n ? m - n : n - m;  // no path is shorter
  if (!(ContextualCostFloor(m, n, lo, harmonic) < bound)) return std::nullopt;
  // Largest k in [lo, m + n] with floor(k) < bound; floor(lo) < bound holds
  // throughout.
  std::size_t hi = m + n;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo + 1) / 2;
    if (ContextualCostFloor(m, n, mid, harmonic) < bound) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

std::optional<std::size_t> ContextualEditLengthGate(std::string_view x,
                                                    std::string_view y,
                                                    double bound,
                                                    HarmonicTable& harmonic) {
  const std::optional<std::size_t> cap =
      ContextualEditLengthCap(x.size(), y.size(), bound, harmonic);
  if (!cap || *cap >= std::max(x.size(), y.size())) return cap;
  const std::size_t d = MyersLevenshteinBounded(x, y, *cap);
  if (d > *cap) return std::nullopt;
  return d;
}

Rational ContextualPathCostExact(std::size_t m, std::size_t n, std::size_t k,
                                 std::size_t ni) {
  ValidateDecomposition(m, n, k, ni);
  const std::size_t nd = m + ni - n;
  const std::size_t ns = k - ni - nd;
  Rational cost = Rational::HarmonicRange(static_cast<std::int64_t>(m) + 1,
                                          static_cast<std::int64_t>(m + ni));
  if (ns > 0) {
    cost += Rational(static_cast<std::int64_t>(ns),
                     static_cast<std::int64_t>(m + ni));
  }
  cost += Rational::HarmonicRange(static_cast<std::int64_t>(n) + 1,
                                  static_cast<std::int64_t>(n + nd));
  return cost;
}

std::vector<std::int32_t> MaxInsertionProfile(std::string_view x,
                                              std::string_view y) {
  const std::size_t m = x.size(), n = y.size();
  const std::size_t width = n + 1;
  const std::size_t kmax = m + n;
  std::vector<std::int32_t> result(kmax + 1, kNegInf);

  // Layer k = 0: only matches — the DP value is 0 along the equal-prefix
  // diagonal, -inf elsewhere.
  std::vector<std::int32_t> prev((m + 1) * width, kNegInf);
  std::vector<std::int32_t> cur((m + 1) * width, kNegInf);
  auto at = [width](std::vector<std::int32_t>& v, std::size_t i,
                    std::size_t j) -> std::int32_t& { return v[i * width + j]; };

  at(prev, 0, 0) = 0;
  {
    bool prefix_eq = true;
    for (std::size_t t = 1; t <= std::min(m, n) && prefix_eq; ++t) {
      prefix_eq = (x[t - 1] == y[t - 1]);
      if (prefix_eq) at(prev, t, t) = 0;
    }
  }
  if (prev[m * width + n] >= 0) result[0] = prev[m * width + n];

  // Layers k = 1 .. m+n. Within a layer, the match move stays on the same
  // layer (cost 0), so cells are filled in increasing (i, j) order; the
  // substitution / deletion / insertion moves read the previous layer.
  for (std::size_t k = 1; k <= kmax; ++k) {
    at(cur, 0, 0) = kNegInf;
    for (std::size_t j = 1; j <= n; ++j) {
      at(cur, 0, j) = at(prev, 0, j - 1) + 1;  // insertion only
    }
    for (std::size_t i = 1; i <= m; ++i) {
      at(cur, i, 0) = at(prev, i - 1, 0);  // deletion only
      const char xi = x[i - 1];
      const std::int32_t* prev_up = &prev[(i - 1) * width];
      const std::int32_t* prev_row = &prev[i * width];
      std::int32_t* cur_row = &cur[i * width];
      const std::int32_t* cur_up = &cur[(i - 1) * width];
      for (std::size_t j = 1; j <= n; ++j) {
        // Match (same layer) or substitution (previous layer).
        std::int32_t best =
            (xi == y[j - 1]) ? cur_up[j - 1] : prev_up[j - 1];
        best = std::max(best, prev_up[j]);          // delete x_i
        best = std::max(best, prev_row[j - 1] + 1); // insert y_j
        cur_row[j] = best;
      }
    }
    if (cur[m * width + n] >= 0) result[k] = cur[m * width + n];
    std::swap(prev, cur);
  }
  return result;
}

ContextualResult ContextualDistanceDetailed(std::string_view x,
                                            std::string_view y, double bound) {
  const std::size_t m = x.size(), n = y.size();
  HarmonicTable& h = ThreadLocalHarmonic();

  ContextualResult best;
  if (m == 0 && n == 0) return best;
  best.distance = std::numeric_limits<double>::infinity();

  // d_E gate. Every canonical path has edit length >= d_E(x, y) and the
  // floor never decreases in k (contextual.h), so d_C >= floor(d_E): when
  // d_E > K, the cap below which floors stay under the bound, every path
  // costs >= bound and the call can return +infinity at once. The
  // gate (`ContextualEditLengthGate`, shared with dC,h) decides d_E > K
  // exactly, so a call it lets through runs the DP below unchanged. Both
  // rejections happen before the DP planes are touched.
  if (!ContextualEditLengthGate(x, y, bound, h)) return best;

  // Same layered DP as MaxInsertionProfile, but band-limited — at layer k a
  // cell (i, j) is reachable only when |i - j| <= k, because insertions
  // minus deletions along the prefix equals j - i while their sum is at
  // most k — and evaluating each layer's candidate as soon as its last
  // cell is available so the loop can stop once the cost floor of paths
  // of length >= k (`ContextualCostFloor`) rules out all longer paths (or
  // reaches the caller's bound).
  //
  // Buffer invariant: cells outside a layer's band are kNegInf. It holds
  // at the start (both planes are filled with kNegInf) and is preserved
  // because layer k writes exactly the band |i - j| <= k into the plane
  // that held layer k-2 (whose untouched cells satisfy |i - j| > k-2 and
  // were kNegInf by induction). Reads reach at most one cell outside the
  // previous layer's band in each direction, which the invariant covers.
  const std::size_t width = n + 1;
  const std::size_t kmax = m + n;
  DpWorkspace& ws = TlsDpWorkspace();
  ws.layer_a.assign((m + 1) * width, kNegInf);
  ws.layer_b.assign((m + 1) * width, kNegInf);
  std::vector<std::int32_t>* prev = &ws.layer_a;
  std::vector<std::int32_t>* cur = &ws.layer_b;

  auto consider = [&](std::size_t k, std::int32_t raw_ni) {
    if (raw_ni < 0) return;
    const auto ni = static_cast<std::size_t>(raw_ni);
    double cost = ContextualPathCost(m, n, k, ni, h);
    if (cost < best.distance) {
      best.distance = cost;
      best.k = k;
      best.insertions = ni;
      best.deletions = m + ni - n;
      best.substitutions = k - ni - best.deletions;
    }
  };

  (*prev)[0] = 0;
  {
    bool prefix_eq = true;
    for (std::size_t t = 1; t <= std::min(m, n) && prefix_eq; ++t) {
      prefix_eq = (x[t - 1] == y[t - 1]);
      if (prefix_eq) (*prev)[t * width + t] = 0;
    }
  }
  tls_cells_evaluated += std::min(m, n) + 1;
  consider(0, (*prev)[m * width + n]);

  for (std::size_t k = 1; k <= kmax; ++k) {
    const double layer_floor = ContextualCostFloor(m, n, k, h);
    // No path of length >= k costs less than the floor; once it exceeds the
    // incumbent — or reaches the caller's bound — no longer path can
    // produce a result the caller would use.
    if (layer_floor > best.distance || layer_floor >= bound) break;

    // Row 0: insertion-only cells, band j <= k.
    {
      std::int32_t* cur_row = cur->data();
      const std::int32_t* prev_row = prev->data();
      cur_row[0] = kNegInf;
      const std::size_t jhi = std::min(n, k);
      for (std::size_t j = 1; j <= jhi; ++j) {
        cur_row[j] = prev_row[j - 1] + 1;
      }
      tls_cells_evaluated += jhi + 1;
    }
    for (std::size_t i = 1; i <= m; ++i) {
      const std::size_t jlo = i > k ? i - k : 0;
      const std::size_t jhi = std::min(n, i + k);
      if (jlo > jhi) continue;  // row entirely outside the band (i > n + k)
      const char xi = x[i - 1];
      const std::int32_t* prev_up = &(*prev)[(i - 1) * width];
      const std::int32_t* prev_row = &(*prev)[i * width];
      std::int32_t* cur_row = &(*cur)[i * width];
      const std::int32_t* cur_up = &(*cur)[(i - 1) * width];
      std::size_t j = jlo;
      if (j == 0) {
        cur_row[0] = prev_up[0];  // deletion only
        j = 1;
      }
      for (; j <= jhi; ++j) {
        std::int32_t v = (xi == y[j - 1]) ? cur_up[j - 1] : prev_up[j - 1];
        v = std::max(v, prev_up[j]);
        v = std::max(v, prev_row[j - 1] + 1);
        cur_row[j] = v;
      }
      tls_cells_evaluated += jhi - jlo + 1;
    }
    consider(k, (*cur)[m * width + n]);
    std::swap(prev, cur);
  }
  return best;
}

std::uint64_t ContextualCellsEvaluated() { return tls_cells_evaluated; }

void ResetContextualCellsEvaluated() { tls_cells_evaluated = 0; }

double ContextualDistance(std::string_view x, std::string_view y) {
  return ContextualDistanceDetailed(x, y).distance;
}

Rational ContextualDistanceExact(std::string_view x, std::string_view y) {
  const std::size_t m = x.size(), n = y.size();
  std::vector<std::int32_t> profile = MaxInsertionProfile(x, y);
  bool found = false;
  Rational best;
  for (std::size_t k = 0; k < profile.size(); ++k) {
    if (profile[k] < 0) continue;
    Rational cost =
        ContextualPathCostExact(m, n, k, static_cast<std::size_t>(profile[k]));
    if (!found || cost < best) {
      best = cost;
      found = true;
    }
  }
  if (!found) throw std::logic_error("ContextualDistanceExact: no path found");
  return best;
}

}  // namespace cned
