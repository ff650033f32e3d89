#include "core/contextual.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/dp_workspace.h"
#include "distances/myers.h"
#include "search/sweep_kernel.h"

namespace cned {
namespace {

// "Minus infinity" for the insertion-count DP. Far enough from INT32_MIN
// that adding +1 per layer (at most |x|+|y| times) cannot wrap.
constexpr std::int32_t kNegInf = std::numeric_limits<std::int32_t>::min() / 4;

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

std::optional<std::size_t> ContextualGate::operator()(std::string_view y,
                                                      double bound) {
  const std::size_t m = x_.size(), n = y.size();
  // The unprepared gate's steps: an unbounded or NaN bound gives the cap
  // m + n >= max(m, n) and no check.
  if (!(bound < std::numeric_limits<double>::infinity())) return m + n;
  const std::size_t cap = Cap(n, bound);
  if (cap == kNoCap) return std::nullopt;
  if (cap >= std::max(m, n)) return cap;
  const std::size_t d = Pattern().Bounded(y, cap);
  if (d > cap) return std::nullopt;
  return d;
}

std::size_t ContextualGate::EditDistance(std::string_view y) {
  return Pattern().Bounded(y, std::max(x_.size(), y.size()));
}

std::size_t ContextualGate::Cap(std::size_t n, double bound) {
  if (!(bound == cap_bound_)) {
    cap_bound_ = bound;
    ++stamp_;
  }
  if (n >= caps_.size()) {
    caps_.resize(n + 1);
    stamps_.resize(n + 1, 0);
  }
  if (stamps_[n] != stamp_) {
    const std::optional<std::size_t> cap =
        ContextualEditLengthCap(x_.size(), n, bound, ThreadLocalHarmonic());
    caps_[n] = cap ? *cap : kNoCap;
    stamps_[n] = stamp_;
  }
  return caps_[n];
}

MyersPattern& ContextualGate::Pattern() {
  if (!pattern_) pattern_.emplace(x_);
  return *pattern_;
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

ContextualLayerScan::ContextualLayerScan(std::size_t m, std::size_t n,
                                         double bound)
    : m_(m), n_(n), bound_(bound), h_(ThreadLocalHarmonic()) {
  best_.distance = std::numeric_limits<double>::infinity();
}

bool ContextualLayerScan::Open(std::size_t k) {
  const double layer_floor = ContextualCostFloor(m_, n_, k, h_);
  // No path of length >= k costs less than the floor; once it exceeds the
  // incumbent — or reaches the caller's bound — no longer path can produce
  // a result the caller would use.
  return !(layer_floor > best_.distance || layer_floor >= bound_);
}

void ContextualLayerScan::Consider(std::size_t k, std::int32_t raw_ni) {
  if (raw_ni < 0) return;
  const auto ni = static_cast<std::size_t>(raw_ni);
  const double cost = ContextualPathCost(m_, n_, k, ni, h_);
  if (cost < best_.distance) {
    best_.distance = cost;
    best_.k = k;
    best_.insertions = ni;
    best_.deletions = m_ + ni - n_;
    best_.substitutions = k - ni - best_.deletions;
  }
}

std::size_t ContextualLastLayer(std::size_t m, std::size_t n, std::size_t p,
                               std::size_t cap) {
  HarmonicTable& h = ThreadLocalHarmonic();
  const double upper = ContextualPathCost(m, n, p, n > m ? n - m : 0, h);
  // Largest k in [p, cap] with floor(k) <= upper; floor(p) <= upper.
  // Galloping up from p first: near-duplicates stop within a layer or two.
  std::size_t lo = p;
  std::size_t hi = cap;
  for (std::size_t step = 1; lo < hi; step *= 2) {
    const std::size_t probe = std::min(hi, lo + step);
    if (!(ContextualCostFloor(m, n, probe, h) <= upper)) {
      hi = probe - 1;
      break;
    }
    lo = probe;
  }
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo + 1) / 2;
    if (ContextualCostFloor(m, n, mid, h) <= upper) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

namespace {

// The evaluator of `ContextualEditDistance::Prepare`: the steps of
// `ContextualDistanceDetailed` with the prepared gate.
class PreparedContextual final : public PreparedDistance {
 public:
  explicit PreparedContextual(std::string_view x) : x_(x), gate_(x) {}

  double Bounded(std::string_view y, double bound) override {
    if (x_.empty() && y.empty()) return 0.0;
    const std::optional<std::size_t> gate = gate_(y, bound);
    if (!gate) return std::numeric_limits<double>::infinity();
    return ActiveSweepKernels()
        .contextual_layers(x_, y, bound, *gate, TlsDpWorkspace())
        .distance;
  }

 private:
  std::string_view x_;
  ContextualGate gate_;
};

}  // namespace

std::unique_ptr<PreparedDistance> ContextualEditDistance::Prepare(
    std::string_view x) const {
  return std::make_unique<PreparedContextual>(x);
}

ContextualResult ContextualDistanceDetailed(std::string_view x,
                                            std::string_view y, double bound) {
  if (x.empty() && y.empty()) return ContextualResult{};

  // d_E gate. Every canonical path has edit length >= d_E(x, y) and the
  // floor never decreases in k (contextual.h), so d_C >= floor(d_E): when
  // d_E > K, the cap below which floors stay under the bound, every path
  // costs >= bound and the call can return +infinity at once. The
  // gate (`ContextualEditLengthGate`, shared with dC,h) decides d_E > K
  // exactly, so a call it lets through runs the DP below unchanged. Both
  // rejections happen before the DP is touched.
  const std::optional<std::size_t> gate =
      ContextualEditLengthGate(x, y, bound, ThreadLocalHarmonic());
  if (!gate) {
    ContextualResult abandoned;
    abandoned.distance = std::numeric_limits<double>::infinity();
    return abandoned;
  }
  return ActiveSweepKernels().contextual_layers(x, y, bound, *gate,
                                                TlsDpWorkspace());
}

std::uint64_t ContextualCellsEvaluated() {
  return TlsDpWorkspace().contextual_cells;
}

void ResetContextualCellsEvaluated() { TlsDpWorkspace().contextual_cells = 0; }

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
