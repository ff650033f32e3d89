#include "distances/marzal_vidal.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "distances/levenshtein.h"
#include "distances/normalized.h"
#include "strings/string_gen.h"

namespace cned {
namespace {

TEST(MarzalVidalTest, IdenticalStringsZero) {
  EXPECT_DOUBLE_EQ(MarzalVidalDistance("abc", "abc"), 0.0);
  EXPECT_DOUBLE_EQ(MarzalVidalDistance("", ""), 0.0);
}

TEST(MarzalVidalTest, EmptyVersusNonEmptyIsOne) {
  // The only paths are |y| insertions: weight |y| over length |y| => 1.
  EXPECT_DOUBLE_EQ(MarzalVidalDistance("", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(MarzalVidalDistance("abc", ""), 1.0);
}

TEST(MarzalVidalTest, SingleSubstitutionHalfATwoPath) {
  // x = a, y = b. Path 1: one substitution, ratio 1/1 = 1. Path 2: insert b
  // then delete a: ratio 2/2 = 1. Best is 1... but a longer path cannot
  // beat 1 because at least one op has weight 1 per length unit... check
  // the DP returns exactly 1.
  EXPECT_DOUBLE_EQ(MarzalVidalDistance("a", "b"), 1.0);
}

TEST(MarzalVidalTest, RatioCanBeatNaiveNormalisations) {
  // x = aaab, y = aaa: the deletion path has weight 1, length 4 (3 matches +
  // 1 deletion): ratio 1/4, strictly below dE/|x| = 1/4? equal. For
  // ab -> aba: path match,match,insert: 1/3.
  EXPECT_DOUBLE_EQ(MarzalVidalDistance("aaab", "aaa"), 1.0 / 4.0);
  EXPECT_DOUBLE_EQ(MarzalVidalDistance("ab", "aba"), 1.0 / 3.0);
}

TEST(MarzalVidalTest, AtMostDmax) {
  // The alignment of length max(|x|,|y|) realising dE gives a ratio
  // <= dE / max(|x|,|y|)... the minimal path may use more ops; in all cases
  // dMV <= dmax must hold because that alignment is itself a valid path of
  // length >= max(|x|,|y|)... we check empirically on random strings.
  Rng rng(3);
  Alphabet ab("abc");
  for (int i = 0; i < 200; ++i) {
    std::string x = StringGen::UniformLength(rng, ab, 1, 10);
    std::string y = StringGen::UniformLength(rng, ab, 1, 10);
    EXPECT_LE(MarzalVidalDistance(x, y), DmaxDistance(x, y) + 1e-12);
  }
}

TEST(MarzalVidalTest, RangeZeroOne) {
  Rng rng(4);
  Alphabet ab("ab");
  for (int i = 0; i < 300; ++i) {
    std::string x = StringGen::UniformLength(rng, ab, 0, 12);
    std::string y = StringGen::UniformLength(rng, ab, 0, 12);
    double d = MarzalVidalDistance(x, y);
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0 + 1e-12);
  }
}

TEST(MarzalVidalTest, SymmetryAndIdentity) {
  Rng rng(5);
  Alphabet ab("abc");
  for (int i = 0; i < 150; ++i) {
    std::string x = StringGen::UniformLength(rng, ab, 0, 10);
    std::string y = StringGen::UniformLength(rng, ab, 0, 10);
    EXPECT_NEAR(MarzalVidalDistance(x, y), MarzalVidalDistance(y, x), 1e-12);
    EXPECT_DOUBLE_EQ(MarzalVidalDistance(x, x), 0.0);
    if (x != y) {
      EXPECT_GT(MarzalVidalDistance(x, y), 0.0);
    }
  }
}

TEST(MarzalVidalTest, ZeroOnlyForEqualStrings) {
  EXPECT_GT(MarzalVidalDistance("a", ""), 0.0);
  EXPECT_GT(MarzalVidalDistance("ab", "ba"), 0.0);
}

TEST(MarzalVidalTest, BruteForceCrossCheckTinyStrings) {
  // Brute-force: enumerate all alignments via the weight-by-length DP is
  // what we're testing, so instead check against an independent recursive
  // enumeration of alignment (weight, length) pairs.
  struct Enumerator {
    std::string_view x, y;
    double best = 1e9;
    void Rec(std::size_t i, std::size_t j, std::size_t w, std::size_t len) {
      if (i == x.size() && j == y.size()) {
        if (len > 0) best = std::min(best, static_cast<double>(w) / len);
        return;
      }
      if (i < x.size() && j < y.size()) {
        Rec(i + 1, j + 1, w + (x[i] == y[j] ? 0 : 1), len + 1);
      }
      if (i < x.size()) Rec(i + 1, j, w + 1, len + 1);
      if (j < y.size()) Rec(i, j + 1, w + 1, len + 1);
    }
  };
  Rng rng(6);
  Alphabet ab("ab");
  for (int t = 0; t < 60; ++t) {
    std::string x = StringGen::UniformLength(rng, ab, 1, 6);
    std::string y = StringGen::UniformLength(rng, ab, 1, 6);
    Enumerator e{x, y};
    e.Rec(0, 0, 0, 0);
    EXPECT_NEAR(MarzalVidalDistance(x, y), e.best, 1e-12)
        << "x=" << x << " y=" << y;
  }
}

TEST(MarzalVidalTest, GeneralizedCostsSupported) {
  MatrixCosts costs = MatrixCosts::Uniform(Alphabet("ab"), 2.0, 1.0, 1.0);
  // a -> b: substitution path ratio 2/1 = 2; ins+del path ratio 2/2 = 1.
  EXPECT_DOUBLE_EQ(MarzalVidalDistance("a", "b", costs), 1.0);
}

TEST(MarzalVidalTest, AdapterMetadata) {
  MarzalVidalNormalizedDistance d;
  EXPECT_EQ(d.name(), "dMV");
  EXPECT_FALSE(d.is_metric());
  EXPECT_DOUBLE_EQ(d.Distance("ab", "aba"), 1.0 / 3.0);
}

}  // namespace
}  // namespace cned
