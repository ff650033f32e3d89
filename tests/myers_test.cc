#include "distances/myers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/rng.h"
#include "distances/levenshtein.h"
#include "strings/string_gen.h"

namespace cned {
namespace {

TEST(MyersTest, ClassicValues) {
  EXPECT_EQ(MyersLevenshtein("kitten", "sitting"), 3u);
  EXPECT_EQ(MyersLevenshtein("abaa", "aab"), 2u);
  EXPECT_EQ(MyersLevenshtein("", ""), 0u);
  EXPECT_EQ(MyersLevenshtein("", "abc"), 3u);
  EXPECT_EQ(MyersLevenshtein("abc", ""), 3u);
  EXPECT_EQ(MyersLevenshtein("same", "same"), 0u);
}

TEST(MyersTest, MatchesDpOnShortStrings) {
  Rng rng(1201);
  Alphabet ab("abcd");
  for (int t = 0; t < 500; ++t) {
    std::string x = StringGen::UniformLength(rng, ab, 0, 30);
    std::string y = StringGen::UniformLength(rng, ab, 0, 30);
    EXPECT_EQ(MyersLevenshtein(x, y), LevenshteinDistance(x, y))
        << "x=" << x << " y=" << y;
  }
}

TEST(MyersTest, MatchesDpAroundWordBoundary) {
  // Pattern lengths 63, 64, 65 exercise the single-word/blocked switch and
  // the last-block high-bit handling.
  Rng rng(1202);
  Alphabet ab("ab");
  for (std::size_t m : {62u, 63u, 64u, 65u, 66u, 127u, 128u, 129u}) {
    for (int t = 0; t < 25; ++t) {
      std::string x = StringGen::Uniform(rng, ab, m);
      std::string y = StringGen::UniformLength(rng, ab, m / 2, m * 2);
      EXPECT_EQ(MyersLevenshtein(x, y), LevenshteinDistance(x, y))
          << "m=" << m;
    }
  }
}

TEST(MyersTest, MatchesDpOnLongMultiBlockStrings) {
  Rng rng(1203);
  Alphabet ab("ACGT");
  for (int t = 0; t < 20; ++t) {
    std::string x = StringGen::UniformLength(rng, ab, 200, 500);
    std::string y = StringGen::UniformLength(rng, ab, 200, 500);
    EXPECT_EQ(MyersLevenshtein(x, y), LevenshteinDistance(x, y));
  }
}

TEST(MyersTest, SymmetricInArguments) {
  Rng rng(1204);
  Alphabet ab("abc");
  for (int t = 0; t < 100; ++t) {
    std::string x = StringGen::UniformLength(rng, ab, 0, 100);
    std::string y = StringGen::UniformLength(rng, ab, 0, 100);
    EXPECT_EQ(MyersLevenshtein(x, y), MyersLevenshtein(y, x));
  }
}

TEST(MyersTest, HighSimilarityAndDisjointExtremes) {
  std::string a(300, 'a');
  std::string b(300, 'b');
  EXPECT_EQ(MyersLevenshtein(a, b), 300u);
  EXPECT_EQ(MyersLevenshtein(a, a), 0u);
  std::string a_mut = a;
  a_mut[150] = 'b';
  EXPECT_EQ(MyersLevenshtein(a, a_mut), 1u);
}

// The bounded kernel against the DP at every bound K in [0, max(m, n)]:
// exactly d_E when d_E <= K, K + 1 otherwise. The prepared pattern
// (`MyersPattern`) runs x down the columns whichever string is longer, and
// must return the same.
void ExpectBoundedAgreesAtEveryBound(const std::string& x,
                                     const std::string& y) {
  const std::size_t d = LevenshteinDistance(x, y);
  MyersPattern pattern(x);
  for (std::size_t k = 0; k <= std::max(x.size(), y.size()); ++k) {
    const std::size_t want = d <= k ? d : k + 1;
    const std::string what = "|x|=" + std::to_string(x.size()) + " |y|=" +
                             std::to_string(y.size()) + " K=" +
                             std::to_string(k) + " d=" + std::to_string(d);
    EXPECT_EQ(MyersLevenshteinBounded(x, y, k), want) << what;
    EXPECT_EQ(pattern.Bounded(y, k), want) << what << " prepared";
  }
}

// Uniform random bytes drawn from `symbols`.
std::string RandomBytes(Rng& rng, const std::string& symbols, std::size_t n) {
  std::string s(n, '\0');
  for (char& c : s) c = symbols[rng.Index(symbols.size())];
  return s;
}

TEST(MyersTest, BoundedAgreesWithDpAtEveryBound) {
  // Lengths on both sides of the one-word / blocked switch and of the
  // second block boundary, empty sides included, with x as the prepared
  // pattern also when it is the longer string; symbols include bytes
  // >= 0x80, which must index the match table as unsigned.
  const std::size_t lengths[] = {0, 1, 63, 64, 65, 127, 128, 129};
  const std::string symbols[] = {"ab", std::string("a\x7f\x80\xff", 4)};
  Rng rng(1205);
  for (const std::string& sym : symbols) {
    for (std::size_t m : lengths) {
      for (std::size_t n : lengths) {
        const std::string x = RandomBytes(rng, sym, m);
        ExpectBoundedAgreesAtEveryBound(x, RandomBytes(rng, sym, n));
        // A near-duplicate: a few substitutions, so small bounds pass too.
        std::string y = x;
        for (int e = 0; e < 3 && !y.empty(); ++e) {
          y[rng.Index(y.size())] = sym[rng.Index(sym.size())];
        }
        ExpectBoundedAgreesAtEveryBound(x, y);
      }
    }
  }
}

}  // namespace
}  // namespace cned
