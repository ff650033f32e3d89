#include "distances/normalized.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "distances/levenshtein.h"
#include "distances/registry.h"
#include "strings/string_gen.h"

namespace cned {
namespace {

TEST(DsumTest, PaperTriangleCounterexample) {
  // Paper §2.2: x = ab, y = aba, z = ba.
  // dsum(ab,aba) + dsum(aba,ba) = 1/5 + 1/5 < dsum(ab,ba) = 2/4.
  double xy = DsumDistance("ab", "aba");
  double yz = DsumDistance("aba", "ba");
  double xz = DsumDistance("ab", "ba");
  EXPECT_DOUBLE_EQ(xy, 1.0 / 5.0);
  EXPECT_DOUBLE_EQ(yz, 1.0 / 5.0);
  EXPECT_DOUBLE_EQ(xz, 2.0 / 4.0);
  EXPECT_GT(xz, xy + yz);  // triangle inequality violated
}

TEST(DmaxTest, PaperTriangleCounterexample) {
  // Same triple breaks dmax: 1/3 + 1/3 < 1? No: dmax(ab,aba)=1/3,
  // dmax(aba,ba)=1/3, dmax(ab,ba)=2/2=1 > 2/3.
  double xy = DmaxDistance("ab", "aba");
  double yz = DmaxDistance("aba", "ba");
  double xz = DmaxDistance("ab", "ba");
  EXPECT_DOUBLE_EQ(xy, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(yz, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(xz, 1.0);
  EXPECT_GT(xz, xy + yz);
}

TEST(DminTest, PaperTriangleCounterexample) {
  // Paper §2.2 for dmin: x = b, y = ba, z = aa.
  double xy = DminDistance("b", "ba");
  double yz = DminDistance("ba", "aa");
  double xz = DminDistance("b", "aa");
  EXPECT_DOUBLE_EQ(xy, 1.0);          // dE=1, min len 1
  EXPECT_DOUBLE_EQ(yz, 1.0 / 2.0);    // dE=1, min len 2
  EXPECT_DOUBLE_EQ(xz, 2.0);          // dE=2, min len 1
  EXPECT_GT(xz, xy + yz);
}

TEST(DybTest, FormulaMatchesDefinition) {
  Rng rng(4);
  Alphabet ab("abc");
  for (int i = 0; i < 200; ++i) {
    std::string x = StringGen::UniformLength(rng, ab, 0, 15);
    std::string y = StringGen::UniformLength(rng, ab, 0, 15);
    double de = static_cast<double>(LevenshteinDistance(x, y));
    double expected = (x.empty() && y.empty())
                          ? 0.0
                          : 2.0 * de / (static_cast<double>(x.size() + y.size()) + de);
    EXPECT_DOUBLE_EQ(DybDistance(x, y), expected);
  }
}

TEST(DybTest, RangeZeroToOne) {
  Rng rng(5);
  Alphabet ab("ab");
  for (int i = 0; i < 300; ++i) {
    std::string x = StringGen::UniformLength(rng, ab, 0, 12);
    std::string y = StringGen::UniformLength(rng, ab, 0, 12);
    double d = DybDistance(x, y);
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0);
  }
}

TEST(DybTest, CompletelyDifferentStringsApproachOne) {
  // Disjoint alphabets, equal length: dE = n, dYB = 2n/(2n+n) = 2/3.
  EXPECT_NEAR(DybDistance("aaaa", "bbbb"), 2.0 / 3.0, 1e-12);
  // Maximum value 1 is reached against the empty string.
  EXPECT_DOUBLE_EQ(DybDistance("", "abc"), 1.0);
}

TEST(DybTest, TriangleInequalityHolds) {
  // Yujian & Bo proved dYB is a metric; spot-check many random triples.
  Rng rng(6);
  Alphabet ab("ab");
  for (int i = 0; i < 500; ++i) {
    std::string x = StringGen::UniformLength(rng, ab, 0, 10);
    std::string y = StringGen::UniformLength(rng, ab, 0, 10);
    std::string z = StringGen::UniformLength(rng, ab, 0, 10);
    EXPECT_LE(DybDistance(x, z), DybDistance(x, y) + DybDistance(y, z) + 1e-12);
  }
}

TEST(NormalizedTest, IdentityAndSymmetryAll) {
  Rng rng(7);
  Alphabet ab("abc");
  for (int i = 0; i < 100; ++i) {
    std::string x = StringGen::UniformLength(rng, ab, 1, 10);
    std::string y = StringGen::UniformLength(rng, ab, 1, 10);
    for (auto f : {DsumDistance, DmaxDistance, DminDistance, DybDistance}) {
      EXPECT_DOUBLE_EQ(f(x, x), 0.0);
      EXPECT_DOUBLE_EQ(f(x, y), f(y, x));
    }
  }
}

TEST(NormalizedTest, EmptyEmptyIsZero) {
  EXPECT_DOUBLE_EQ(DsumDistance("", ""), 0.0);
  EXPECT_DOUBLE_EQ(DmaxDistance("", ""), 0.0);
  EXPECT_DOUBLE_EQ(DminDistance("", ""), 0.0);
  EXPECT_DOUBLE_EQ(DybDistance("", ""), 0.0);
}

TEST(NormalizedTest, AdapterMetadata) {
  EXPECT_EQ(SumNormalizedDistance().name(), "dsum");
  EXPECT_FALSE(SumNormalizedDistance().is_metric());
  EXPECT_EQ(MaxNormalizedDistance().name(), "dmax");
  EXPECT_FALSE(MaxNormalizedDistance().is_metric());
  EXPECT_EQ(MinNormalizedDistance().name(), "dmin");
  EXPECT_FALSE(MinNormalizedDistance().is_metric());
  EXPECT_EQ(YujianBoDistance().name(), "dYB");
  EXPECT_TRUE(YujianBoDistance().is_metric());
}

// The unit-cost family against formulas built on the reference DP
// `LevenshteinDistance`, independent of the production kernel.
struct UnitCostReference {
  const char* name;
  // The normalised value at d_E = `de` for lengths `m` and `n`.
  std::function<double(double de, std::size_t m, std::size_t n)> of;
};

const std::vector<UnitCostReference>& UnitCostReferences() {
  static const std::vector<UnitCostReference> refs = {
      {"dE", [](double de, std::size_t, std::size_t) { return de; }},
      {"dsum",
       [](double de, std::size_t m, std::size_t n) {
         return m + n == 0 ? 0.0 : de / static_cast<double>(m + n);
       }},
      {"dmax",
       [](double de, std::size_t m, std::size_t n) {
         return m + n == 0 ? 0.0 : de / static_cast<double>(std::max(m, n));
       }},
      {"dmin",
       [](double de, std::size_t m, std::size_t n) {
         return m + n == 0 ? 0.0
                           : de / static_cast<double>(std::max<std::size_t>(
                                      std::min(m, n), 1));
       }},
      {"dYB",
       [](double de, std::size_t m, std::size_t n) {
         return m + n == 0
                    ? 0.0
                    : 2.0 * de / (static_cast<double>(m + n) + de);
       }},
  };
  return refs;
}

std::string RandomBytes(Rng& rng, const std::string& symbols, std::size_t n) {
  std::string s(n, '\0');
  for (char& c : s) c = symbols[rng.Index(symbols.size())];
  return s;
}

// Distance is bit-equal to the reference; DistanceBounded is bit-equal
// below each bound (NaN: unbounded) and >= the bound otherwise. The bounds
// are the fixed NaN, -1, 0, 1, 2 and +inf, and the reference formula at
// d_E - 1, d_E and d_E + 1 together with both nextafter neighbours of each.
void ExpectMatchesDpReference(const std::string& x, const std::string& y) {
  const std::size_t de = LevenshteinDistance(x, y);
  const std::size_t m = x.size(), n = y.size();
  const double inf = std::numeric_limits<double>::infinity();
  for (const UnitCostReference& ref : UnitCostReferences()) {
    const StringDistancePtr dist = MakeDistance(ref.name);
    const double want = ref.of(static_cast<double>(de), m, n);
    const std::string ctx = std::string(ref.name) + " |x|=" +
                            std::to_string(m) + " |y|=" + std::to_string(n) +
                            " dE=" + std::to_string(de);
    EXPECT_EQ(dist->Distance(x, y), want) << ctx;

    std::vector<double> bounds = {std::nan(""), -1.0, 0.0, 1.0, 2.0, inf};
    for (std::size_t k : {de - 1, de, de + 1}) {
      if (k > m + n) continue;  // de - 1 wrapped at de = 0
      const double at = ref.of(static_cast<double>(k), m, n);
      bounds.insert(bounds.end(), {std::nextafter(at, -inf), at,
                                   std::nextafter(at, inf)});
    }
    for (double bound : bounds) {
      const double got = dist->DistanceBounded(x, y, bound);
      if (std::isnan(bound) || want < bound) {
        EXPECT_EQ(got, want) << ctx << " bound=" << bound;
      } else {
        EXPECT_GE(got, bound) << ctx << " bound=" << bound;
      }
    }
  }
}

TEST(UnitCostFamilyTest, MatchesDpReferenceAcrossWordBoundaries) {
  // Lengths on both sides of the bit-parallel kernel's one-word / blocked
  // switch and of its second block, empty sides included; symbols include
  // bytes >= 0x80, which must index the match table as unsigned.
  const std::size_t lengths[] = {0, 1, 63, 64, 65, 128, 129};
  const std::string symbols[] = {"ab", std::string("a\x7f\x80\xff", 4)};
  Rng rng(2003);
  for (const std::string& sym : symbols) {
    for (std::size_t m : lengths) {
      for (std::size_t n : lengths) {
        const std::string x = RandomBytes(rng, sym, m);
        ExpectMatchesDpReference(x, RandomBytes(rng, sym, n));
        // A near-duplicate: a few substitutions, so d_E is small.
        std::string y = x;
        for (int e = 0; e < 3 && !y.empty(); ++e) {
          y[rng.Index(y.size())] = sym[rng.Index(sym.size())];
        }
        ExpectMatchesDpReference(x, y);
      }
    }
  }
}

}  // namespace
}  // namespace cned
