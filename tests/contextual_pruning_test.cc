// Tests that the early-terminated exact DP (the `ContextualCostFloor` layer
// cutoff in ContextualDistanceDetailed) is exactly equivalent to the full
// layer scan over the MaxInsertionProfile, unbounded and at bounds around
// the true value, and that it actually prunes. Also checks that the floor
// is the exact minimum cost over all longer paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/contextual.h"
#include "datasets/perturb.h"
#include "strings/string_gen.h"

namespace cned {
namespace {

// Reference: unpruned minimisation over the full profile.
ContextualResult FullScan(std::string_view x, std::string_view y) {
  const std::size_t m = x.size(), n = y.size();
  auto profile = MaxInsertionProfile(x, y);
  HarmonicTable& h = GlobalHarmonic();
  ContextualResult best;
  best.distance = std::numeric_limits<double>::infinity();
  if (m == 0 && n == 0) {
    best.distance = 0.0;
    return best;
  }
  for (std::size_t k = 0; k < profile.size(); ++k) {
    if (profile[k] < 0) continue;
    const auto ni = static_cast<std::size_t>(profile[k]);
    double cost = ContextualPathCost(m, n, k, ni, h);
    if (cost < best.distance) {
      best.distance = cost;
      best.k = k;
      best.insertions = ni;
      best.deletions = m + ni - n;
      best.substitutions = k - ni - best.deletions;
    }
  }
  return best;
}

TEST(ContextualPruningTest, EquivalentToFullScanOnRandomStrings) {
  Rng rng(1801);
  Alphabet ab("abcd");
  for (int t = 0; t < 300; ++t) {
    std::string x = StringGen::UniformLength(rng, ab, 0, 14);
    std::string y = StringGen::UniformLength(rng, ab, 0, 14);
    auto fast = ContextualDistanceDetailed(x, y);
    auto full = FullScan(x, y);
    EXPECT_DOUBLE_EQ(fast.distance, full.distance) << "x=" << x << " y=" << y;
    EXPECT_EQ(fast.k, full.k);
    EXPECT_EQ(fast.insertions, full.insertions);
  }
}

TEST(ContextualPruningTest, EquivalentOnSimilarStrings) {
  // Similar strings are where the pruning bites hardest (small dC).
  Rng rng(1802);
  Alphabet ab("abcdefgh");
  for (int t = 0; t < 100; ++t) {
    std::string x = StringGen::UniformLength(rng, ab, 10, 40);
    std::string y = x;
    for (int e = 0; e < 3; ++e) {
      if (!y.empty()) y[rng.Index(y.size())] = ab.symbol(rng.Index(ab.size()));
    }
    auto fast = ContextualDistanceDetailed(x, y);
    auto full = FullScan(x, y);
    EXPECT_DOUBLE_EQ(fast.distance, full.distance);
  }
}

TEST(ContextualPruningTest, EdgeCases) {
  EXPECT_DOUBLE_EQ(ContextualDistanceDetailed("", "").distance, 0.0);
  auto r1 = ContextualDistanceDetailed("abc", "");
  auto r2 = FullScan("abc", "");
  EXPECT_DOUBLE_EQ(r1.distance, r2.distance);
  auto r3 = ContextualDistanceDetailed("", "xyz");
  EXPECT_DOUBLE_EQ(r3.distance, FullScan("", "xyz").distance);
  // The derived mismatch witness must still be exact.
  EXPECT_NEAR(ContextualDistanceDetailed("abc", "dea").distance, 0.9, 1e-12);
}

// The bounded kernel must equal the full scan (distance, k and the whole
// decomposition) whenever d < bound, and otherwise return >= bound.
void ExpectBoundedMatchesFullScan(const std::string& x, const std::string& y) {
  const ContextualResult full = FullScan(x, y);
  const double d = full.distance;
  const double inf = std::numeric_limits<double>::infinity();
  const double bounds[] = {inf,
                           d,
                           std::nextafter(d, inf),
                           std::nextafter(d, -inf),
                           d / 2,
                           1.5 * d,
                           0.0};
  for (double bound : bounds) {
    const ContextualResult got = ContextualDistanceDetailed(x, y, bound);
    if (d < bound) {
      EXPECT_EQ(got.distance, d) << "x=" << x << " y=" << y << " b=" << bound;
      EXPECT_EQ(got.k, full.k) << "x=" << x << " y=" << y << " b=" << bound;
      EXPECT_EQ(got.insertions, full.insertions)
          << "x=" << x << " y=" << y << " b=" << bound;
      EXPECT_EQ(got.substitutions, full.substitutions)
          << "x=" << x << " y=" << y << " b=" << bound;
    } else {
      EXPECT_GE(got.distance, bound)
          << "x=" << x << " y=" << y << " b=" << bound;
    }
  }
}

TEST(ContextualPruningTest, BoundedEquivalentToFullScanAtBoundaryBounds) {
  Rng rng(1803);
  const std::string symbols = "abcdefghij";
  for (std::size_t sigma = 2; sigma <= symbols.size(); sigma += 2) {
    Alphabet ab(symbols.substr(0, sigma));
    for (int t = 0; t < 60; ++t) {
      std::string x = StringGen::UniformLength(rng, ab, 0, 16);
      std::string y = StringGen::UniformLength(rng, ab, 0, 16);
      ExpectBoundedMatchesFullScan(x, y);
    }
  }
  Alphabet ab("abcdefgh");
  for (int t = 0; t < 60; ++t) {
    std::string x = StringGen::UniformLength(rng, ab, 0, 40);
    std::string y = PerturbString(x, rng.Index(5), ab, rng);
    ExpectBoundedMatchesFullScan(x, y);
  }
  ExpectBoundedMatchesFullScan("", "");
  ExpectBoundedMatchesFullScan("abc", "");
  ExpectBoundedMatchesFullScan("", "xyz");
}

TEST(ContextualCostFloorTest, IsTheMinimumOverAllLongerPaths) {
  // For every (m, n) and k, the floor must equal the minimum cost over all
  // valid decompositions (k' >= k, ni): a lower bound that is attained.
  HarmonicTable h;
  for (std::size_t m = 0; m <= 64; ++m) {
    for (std::size_t n = 0; n <= 64; ++n) {
      const std::size_t kmin = m > n ? m - n : n - m;
      // best[k]: the cheapest path of length exactly k.
      std::vector<double> best(m + n + 1,
                               std::numeric_limits<double>::infinity());
      for (std::size_t k = kmin; k <= m + n; ++k) {
        for (std::size_t ni = m >= n ? 0 : n - m; ni <= n; ++ni) {
          const std::size_t nd = m + ni - n;
          if (ni + nd > k) break;
          best[k] = std::min(best[k], ContextualPathCost(m, n, k, ni, h));
        }
      }
      double suffix_min = std::numeric_limits<double>::infinity();
      for (std::size_t k = m + n + 1; k-- > 0;) {
        suffix_min = std::min(suffix_min, best[k]);
        const double floor = ContextualCostFloor(m, n, k, h);
        EXPECT_EQ(floor, suffix_min) << "m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(ContextualCostFloorTest, NeverDecreasesInK) {
  HarmonicTable h;
  for (std::size_t m = 0; m <= 64; ++m) {
    for (std::size_t n = 0; n <= 64; ++n) {
      for (std::size_t k = 0; k < m + n; ++k) {
        EXPECT_LE(ContextualCostFloor(m, n, k, h),
                  ContextualCostFloor(m, n, k + 1, h))
            << "m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(ContextualPruningTest, PruningSpeedsUpSimilarLongStrings) {
  // One substitution between two 600-symbol strings: dC ~ 1/600, so the
  // pruned loop stops after a handful of layers while the full profile
  // computes all 1200.
  std::string x(600, 'a');
  std::string y = x;
  y[300] = 'b';

  Stopwatch w1;
  auto fast = ContextualDistanceDetailed(x, y);
  double fast_s = w1.Seconds();
  Stopwatch w2;
  auto profile = MaxInsertionProfile(x, y);
  double full_s = w2.Seconds();

  EXPECT_NEAR(fast.distance, 1.0 / 600.0, 1e-12);
  ASSERT_FALSE(profile.empty());
  // The pruned run must be dramatically faster; allow generous slack for
  // timer noise but this is typically >100x.
  EXPECT_LT(fast_s, full_s / 5.0);
}

}  // namespace
}  // namespace cned
