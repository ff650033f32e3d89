// Tests that the early-terminated exact DP (the `ContextualCostFloor` layer
// cutoff in ContextualDistanceDetailed) is exactly equivalent to the full
// layer scan over the MaxInsertionProfile, unbounded and at bounds around
// the true value, and that it actually prunes. Also checks that the floor
// is the exact minimum cost over all longer paths, and that the d_E
// gate of bounded calls, in dC and in dC,h, rejects exactly the pairs whose
// edit distance exceeds the edit-length cap. The prepared gate
// (`ContextualGate`) decides as the unprepared one does, and leaves a LAESA
// sweep's answers and counters those of the one-at-a-time sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/contextual.h"
#include "core/contextual_heuristic.h"
#include "datasets/perturb.h"
#include "distances/levenshtein.h"
#include "distances/registry.h"
#include "search/laesa.h"
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

// Counts of pre-filter outcomes seen by ExpectPrefilterBoundaries, so the
// test can check that both sides of the d_E == K boundary were exercised.
struct PrefilterCases {
  int kept_at_cap = 0;      // d_E == K: the DP ran
  int rejected_past_cap = 0;  // d_E == K + 1: rejected before the DP
  int rejected_by_floor = 0;  // the floor at |m - n| reaches the bound
};

// Runs one bounded call and checks the pre-filter decision and the result:
// a call whose d_E is within the cap K runs the DP (cells are written) and
// obeys the bounded contract against FullScan; every other call returns
// +infinity without touching the DP planes.
void ExpectPrefilterDecision(const std::string& x, const std::string& y,
                             double bound, PrefilterCases& cases) {
  const std::size_t m = x.size(), n = y.size();
  const std::size_t e = LevenshteinDistance(x, y);
  const ContextualResult full = FullScan(x, y);
  const std::optional<std::size_t> cap =
      ContextualEditLengthCap(m, n, bound, GlobalHarmonic());
  ResetContextualCellsEvaluated();
  const ContextualResult got = ContextualDistanceDetailed(x, y, bound);
  const std::uint64_t cells = ContextualCellsEvaluated();
  const std::string where =
      "x=" + x + " y=" + y + " b=" + std::to_string(bound);

  if (full.distance < bound) {
    EXPECT_EQ(got.distance, full.distance) << where;
    EXPECT_EQ(got.k, full.k) << where;
    EXPECT_EQ(got.insertions, full.insertions) << where;
    EXPECT_EQ(got.substitutions, full.substitutions) << where;
  } else {
    EXPECT_GE(got.distance, bound) << where;
  }
  if (m == 0 && n == 0) return;  // answered before the pre-filter
  if (cap && e <= *cap) {
    EXPECT_GT(cells, 0u) << where;
    if (e == *cap) ++cases.kept_at_cap;
  } else {
    EXPECT_EQ(got.distance, std::numeric_limits<double>::infinity()) << where;
    EXPECT_EQ(cells, 0u) << where;
    if (!cap) {
      ++cases.rejected_by_floor;
    } else if (e == *cap + 1) {
      ++cases.rejected_past_cap;
    }
  }
}

// Bounds at and around the floors of edit lengths d_E - 1, d_E and
// d_E + 1 (so the cap K lands on d_E - 1 and d_E), at the floor of |m - n|,
// at 0, and NaN.
void ExpectPrefilterBoundaries(const std::string& x, const std::string& y,
                               PrefilterCases& cases) {
  const std::size_t m = x.size(), n = y.size();
  const std::size_t e = LevenshteinDistance(x, y);
  const std::size_t gap = m > n ? m - n : n - m;
  const double inf = std::numeric_limits<double>::infinity();
  HarmonicTable& h = GlobalHarmonic();
  std::vector<double> bounds = {0.0, ContextualCostFloor(m, n, gap, h)};
  for (std::size_t k = e > gap ? e - 1 : gap; k <= std::min(e + 1, m + n);
       ++k) {
    const double f = ContextualCostFloor(m, n, k, h);
    bounds.insert(bounds.end(),
                  {f, std::nextafter(f, inf), std::nextafter(f, -inf)});
  }
  for (double bound : bounds) ExpectPrefilterDecision(x, y, bound, cases);

  // NaN: no pre-filter and no layer cutoff, so the result is exact.
  ResetContextualCellsEvaluated();
  const ContextualResult got = ContextualDistanceDetailed(
      x, y, std::numeric_limits<double>::quiet_NaN());
  const ContextualResult full = FullScan(x, y);
  EXPECT_EQ(got.distance, full.distance) << "x=" << x << " y=" << y;
  EXPECT_EQ(got.k, full.k) << "x=" << x << " y=" << y;
  EXPECT_EQ(got.insertions, full.insertions) << "x=" << x << " y=" << y;
  EXPECT_EQ(got.substitutions, full.substitutions) << "x=" << x << " y=" << y;
}

TEST(ContextualPruningTest, EditDistancePrefilterBoundaries) {
  PrefilterCases cases;
  Rng rng(1804);
  const std::string symbols = "abcdefgh";
  for (std::size_t sigma = 2; sigma <= symbols.size(); sigma += 3) {
    Alphabet ab(symbols.substr(0, sigma));
    for (int t = 0; t < 60; ++t) {
      std::string x = StringGen::UniformLength(rng, ab, 0, 14);
      std::string y = StringGen::UniformLength(rng, ab, 0, 14);
      ExpectPrefilterBoundaries(x, y, cases);
    }
  }
  Alphabet ab(symbols);
  for (int t = 0; t < 60; ++t) {
    std::string x = StringGen::UniformLength(rng, ab, 0, 30);
    std::string y = PerturbString(x, rng.Index(6), ab, rng);
    ExpectPrefilterBoundaries(x, y, cases);
  }
  for (const char* s : {"", "a", "abc", "abcdefgh"}) {
    ExpectPrefilterBoundaries(s, "", cases);
    ExpectPrefilterBoundaries("", s, cases);
  }
  EXPECT_GT(cases.kept_at_cap, 0);
  EXPECT_GT(cases.rejected_past_cap, 0);
  EXPECT_GT(cases.rejected_by_floor, 0);
}

struct HeuristicGateCases {
  int passed = 0;             // d_E <= K: the DP ran
  int rejected_past_cap = 0;  // d_E > K: rejected by the d_E gate
  int rejected_by_floor = 0;  // the floor at |m - n| reaches the bound
};

// The dC,h counterpart of ExpectPrefilterBoundaries: bounds on both sides
// of every floor step, plus 0, +infinity and NaN. A bounded call returns
// +infinity exactly when d_E > K (or no cap exists); otherwise it returns
// the unbounded result whenever that is below the bound, and anything
// >= the bound when it is not.
void ExpectHeuristicGateBoundaries(const std::string& x, const std::string& y,
                                   HeuristicGateCases& cases) {
  const std::size_t m = x.size(), n = y.size();
  const std::size_t e = LevenshteinDistance(x, y);
  const std::size_t gap = m > n ? m - n : n - m;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  HarmonicTable& h = GlobalHarmonic();
  const ContextualHeuristicResult full = ContextualHeuristicDetailed(x, y);
  std::vector<double> bounds = {0.0, inf, nan};
  for (std::size_t k = gap; k <= m + n; ++k) {
    const double f = ContextualCostFloor(m, n, k, h);
    bounds.insert(bounds.end(),
                  {f, std::nextafter(f, inf), std::nextafter(f, -inf)});
  }
  for (double bound : bounds) {
    const std::optional<std::size_t> cap =
        ContextualEditLengthCap(m, n, bound, h);
    const ContextualHeuristicResult got =
        ContextualHeuristicDetailed(x, y, bound);
    const std::string where =
        "x=" + x + " y=" + y + " b=" + std::to_string(bound);
    if (!cap || e > *cap) {
      EXPECT_EQ(got.distance, inf) << where;
      ++(cap ? cases.rejected_past_cap : cases.rejected_by_floor);
      continue;
    }
    ++cases.passed;
    EXPECT_NE(got.distance, inf) << where;
    if (full.distance < bound || std::isnan(bound)) {
      EXPECT_EQ(got.distance, full.distance) << where;
      EXPECT_EQ(got.k, full.k) << where;
      EXPECT_EQ(got.insertions, full.insertions) << where;
    } else {
      EXPECT_GE(got.distance, bound) << where;
    }
  }
}

TEST(ContextualPruningTest, HeuristicEditDistanceGateBoundaries) {
  HeuristicGateCases cases;
  Rng rng(1805);
  const std::string symbols = "abcdefgh";
  for (std::size_t sigma = 2; sigma <= symbols.size(); sigma += 3) {
    Alphabet ab(symbols.substr(0, sigma));
    for (int t = 0; t < 60; ++t) {
      std::string x = StringGen::UniformLength(rng, ab, 0, 14);
      std::string y = StringGen::UniformLength(rng, ab, 0, 14);
      ExpectHeuristicGateBoundaries(x, y, cases);
    }
  }
  Alphabet ab(symbols);
  for (int t = 0; t < 60; ++t) {
    std::string x = StringGen::UniformLength(rng, ab, 0, 30);
    std::string y = PerturbString(x, rng.Index(6), ab, rng);
    ExpectHeuristicGateBoundaries(x, y, cases);
  }
  // Past one 64-bit word, so the gate runs its blocked form.
  for (int t = 0; t < 6; ++t) {
    std::string x = StringGen::UniformLength(rng, ab, 60, 140);
    std::string y = PerturbString(x, rng.Index(30), ab, rng);
    ExpectHeuristicGateBoundaries(x, y, cases);
  }
  for (const char* s : {"", "a", "abc", "abcdefgh"}) {
    ExpectHeuristicGateBoundaries(s, "", cases);
    ExpectHeuristicGateBoundaries("", s, cases);
  }
  EXPECT_GT(cases.passed, 0);
  EXPECT_GT(cases.rejected_past_cap, 0);
  EXPECT_GT(cases.rejected_by_floor, 0);
}

TEST(ContextualCostFloorTest, EditLengthCapIsTheLastLengthBelowTheBound) {
  HarmonicTable h;
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t m = 0; m <= 24; ++m) {
    for (std::size_t n = 0; n <= 24; ++n) {
      const std::size_t gap = m > n ? m - n : n - m;
      EXPECT_EQ(ContextualEditLengthCap(m, n, inf, h), m + n);
      EXPECT_EQ(ContextualEditLengthCap(
                    m, n, std::numeric_limits<double>::quiet_NaN(), h),
                m + n);
      for (std::size_t k = gap; k <= m + n; ++k) {
        const double f = ContextualCostFloor(m, n, k, h);
        for (double bound : {f, std::nextafter(f, inf)}) {
          const std::optional<std::size_t> cap =
              ContextualEditLengthCap(m, n, bound, h);
          if (!(ContextualCostFloor(m, n, gap, h) < bound)) {
            EXPECT_FALSE(cap.has_value()) << "m=" << m << " n=" << n;
            continue;
          }
          ASSERT_TRUE(cap.has_value()) << "m=" << m << " n=" << n;
          EXPECT_LT(ContextualCostFloor(m, n, *cap, h), bound);
          if (*cap < m + n) {
            EXPECT_GE(ContextualCostFloor(m, n, *cap + 1, h), bound);
          }
        }
      }
    }
  }
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

// The prepared gate against the unprepared one, call by call, one gate per
// query across many candidates: bounds that fall, rise back and repeat
// (each change drops the cached caps), candidate lengths that repeat
// (served from the cache), and unbounded and NaN bounds.
TEST(ContextualGateTest, PreparedGateMatchesUnpreparedAsBoundsMove) {
  Rng rng(1903);
  Alphabet ab("abc");
  HarmonicTable& h = ThreadLocalHarmonic();
  const double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::size_t checked = 0;
  for (int t = 0; t < 100; ++t) {
    const std::string x = StringGen::UniformLength(rng, ab, 0, 90);
    ContextualGate gate(x);
    double bound = 0.05 + rng.Uniform() * 0.6;
    for (int c = 0; c < 30; ++c) {
      std::string y = x;
      for (std::size_t e = rng.Index(12); e > 0 && !y.empty(); --e) {
        y[rng.Index(y.size())] = ab.symbol(rng.Index(ab.size()));
      }
      if (rng.Index(3) == 0) y += StringGen::UniformLength(rng, ab, 0, 8);
      if (rng.Index(4) == 0) y.resize(y.size() / 2);
      switch (rng.Index(6)) {
        case 0: bound *= rng.Uniform(); break;
        case 1: bound = 0.05 + rng.Uniform() * 0.6; break;
        case 2: bound = kInf; break;
        case 3: bound = nan; break;
        default: break;  // the same bound again
      }
      EXPECT_EQ(gate(y, bound), ContextualEditLengthGate(x, y, bound, h))
          << "x=" << x << " y=" << y << " bound=" << bound;
      ++checked;
      if (!(bound < kInf)) bound = 0.3;
    }
  }
  EXPECT_EQ(checked, 3000u);
}

// --- The prepared gate inside LAESA sweeps. --------------------------------

// The one-at-a-time sweep: the wrapped distance without its evaluator, so
// every visit is one unprepared `DistanceBounded` call.
class OneAtATime final : public StringDistance {
 public:
  explicit OneAtATime(StringDistancePtr inner) : inner_(std::move(inner)) {}
  double Distance(std::string_view x, std::string_view y) const override {
    return inner_->Distance(x, y);
  }
  double DistanceBounded(std::string_view x, std::string_view y,
                         double bound) const override {
    return inner_->DistanceBounded(x, y, bound);
  }
  void LengthLowerBounds(std::size_t x_len, const std::uint32_t* y_lens,
                         std::size_t n, double* out) const override {
    inner_->LengthLowerBounds(x_len, y_lens, n, out);
  }
  std::string name() const override { return inner_->name(); }
  bool is_metric() const override { return inner_->is_metric(); }

 private:
  StringDistancePtr inner_;
};

// Near-duplicate strings over {a, b, c} around a few seeds, lengths 20-70,
// every fifth one repeated: incumbents fall often and bounds tie.
std::vector<std::string> NearDuplicates(std::size_t count,
                                        std::uint64_t seed) {
  Rng rng(seed);
  Alphabet ab("abc");
  std::vector<std::string> seeds;
  for (int s = 0; s < 6; ++s) {
    seeds.push_back(StringGen::UniformLength(rng, ab, 20, 70));
  }
  std::vector<std::string> out;
  while (out.size() < count) {
    if (out.size() % 5 == 4) {
      out.push_back(out[rng.Index(out.size())]);
      continue;
    }
    std::string w = seeds[rng.Index(seeds.size())];
    const std::size_t edits = 1 + rng.Index(8);
    for (std::size_t e = 0; e < edits && !w.empty(); ++e) {
      const std::size_t at = rng.Index(w.size());
      switch (rng.Index(3)) {
        case 0: w[at] = ab.symbol(rng.Index(ab.size())); break;
        case 1: w.erase(at, 1); break;
        default: w.insert(at, 1, ab.symbol(rng.Index(ab.size())));
      }
    }
    out.push_back(w);
  }
  return out;
}

// The prepared sweep against the one-at-a-time sweep: the same neighbours,
// distances and every `QueryStats` field, lazy and with a pivot row, for
// k = 1 and for k > 1 over repeated strings (ties on the bound), under both
// contextual distances. Incumbents fall often, so one evaluator sees many
// bounds.
TEST(PreparedSweepTest, PreparedSweepMatchesOneAtATimeSweep) {
  const std::vector<std::string> protos = NearDuplicates(500, 1901);
  const std::vector<std::string> queries = NearDuplicates(40, 1902);
  for (const char* name : {"dC,h", "dC"}) {
    const StringDistancePtr dist = MakeDistance(name);
    const Laesa prepared(protos, dist, 24);
    const Laesa oracle(protos, std::make_shared<OneAtATime>(dist), 24);
    ASSERT_EQ(prepared.pivots(), oracle.pivots()) << name;
    for (const std::string& q : queries) {
      std::vector<double> row(prepared.pivot_count());
      prepared.ComputePivotRow(q, row.data());
      for (std::size_t k : {1, 3, 7}) {
        QueryStats sp, so, rp, ro;
        const auto lazy_p = prepared.KNearest(q, k, &sp);
        const auto lazy_o = oracle.KNearest(q, k, &so);
        const auto row_p =
            prepared.KNearestWithPivotRow(q, k, row.data(), &rp);
        const auto row_o = oracle.KNearestWithPivotRow(q, k, row.data(), &ro);
        const std::string what = std::string(name) + " k=" +
                                 std::to_string(k) + " q=" + q;
        ASSERT_EQ(lazy_p.size(), lazy_o.size()) << what;
        for (std::size_t i = 0; i < lazy_p.size(); ++i) {
          EXPECT_EQ(lazy_p[i].index, lazy_o[i].index) << what;
          EXPECT_EQ(lazy_p[i].distance, lazy_o[i].distance) << what;
        }
        ASSERT_EQ(row_p.size(), row_o.size()) << what;
        for (std::size_t i = 0; i < row_p.size(); ++i) {
          EXPECT_EQ(row_p[i].index, row_o[i].index) << what;
          EXPECT_EQ(row_p[i].distance, row_o[i].distance) << what;
        }
        EXPECT_TRUE(sp == so) << what << " lazy stats";
        EXPECT_TRUE(rp == ro) << what << " row stats";
      }
    }
  }
}

}  // namespace
}  // namespace cned
