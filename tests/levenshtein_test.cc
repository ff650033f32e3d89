#include "distances/levenshtein.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "strings/string_gen.h"
#include "tests/levenshtein_matrix.h"

namespace cned {
namespace {

TEST(LevenshteinTest, PaperExample1) {
  // dE(abaa, aab) = 2: delete the 'b', substitute the last 'a' by 'b'.
  EXPECT_EQ(LevenshteinDistance("abaa", "aab"), 2u);
}

TEST(LevenshteinTest, PaperExample2UpperBound) {
  // The paper exhibits a 3-operation path abaa -> baab.
  EXPECT_LE(LevenshteinDistance("abaa", "baab"), 3u);
  EXPECT_EQ(LevenshteinDistance("abaa", "baab"), 2u);  // actually 2
}

TEST(LevenshteinTest, ClassicValues) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("flaw", "lawn"), 2u);
  EXPECT_EQ(LevenshteinDistance("", ""), 0u);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3u);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3u);
  EXPECT_EQ(LevenshteinDistance("same", "same"), 0u);
}

TEST(LevenshteinTest, SymmetryOnRandomStrings) {
  Rng rng(5);
  Alphabet ab("abc");
  for (int i = 0; i < 200; ++i) {
    std::string x = StringGen::UniformLength(rng, ab, 0, 12);
    std::string y = StringGen::UniformLength(rng, ab, 0, 12);
    EXPECT_EQ(LevenshteinDistance(x, y), LevenshteinDistance(y, x));
  }
}

TEST(LevenshteinTest, LengthDifferenceLowerBound) {
  Rng rng(6);
  Alphabet ab("ab");
  for (int i = 0; i < 200; ++i) {
    std::string x = StringGen::UniformLength(rng, ab, 0, 15);
    std::string y = StringGen::UniformLength(rng, ab, 0, 15);
    std::size_t d = LevenshteinDistance(x, y);
    std::size_t diff = x.size() > y.size() ? x.size() - y.size()
                                           : y.size() - x.size();
    EXPECT_GE(d, diff);
    EXPECT_LE(d, std::max(x.size(), y.size()));
  }
}

TEST(LevenshteinTest, MatrixMatchesScalar) {
  Rng rng(7);
  Alphabet ab("abc");
  for (int i = 0; i < 50; ++i) {
    std::string x = StringGen::UniformLength(rng, ab, 0, 10);
    std::string y = StringGen::UniformLength(rng, ab, 0, 10);
    auto m = LevenshteinMatrix(x, y);
    ASSERT_EQ(m.size(), x.size() + 1);
    ASSERT_EQ(m[0].size(), y.size() + 1);
    EXPECT_EQ(m[x.size()][y.size()], LevenshteinDistance(x, y));
    // Every prefix cell is itself an edit distance.
    for (std::size_t a = 0; a <= x.size(); ++a) {
      for (std::size_t b = 0; b <= y.size(); ++b) {
        EXPECT_EQ(m[a][b],
                  LevenshteinDistance(x.substr(0, a), y.substr(0, b)));
      }
    }
  }
}

TEST(LevenshteinTest, BoundedAgreesWhenWithinBound) {
  Rng rng(8);
  Alphabet ab("abcd");
  for (int i = 0; i < 300; ++i) {
    std::string x = StringGen::UniformLength(rng, ab, 0, 14);
    std::string y = StringGen::UniformLength(rng, ab, 0, 14);
    std::size_t exact = LevenshteinDistance(x, y);
    for (std::size_t bound : {0u, 1u, 2u, 5u, 20u}) {
      // The real bound `bound + 1` maps onto the kernel's integer band
      // `bound`: exact up to it, above it otherwise.
      const double b = LevenshteinDistanceBounded(
          x, y, static_cast<double>(bound) + 1.0);
      if (exact <= bound) {
        EXPECT_EQ(b, static_cast<double>(exact))
            << "x=" << x << " y=" << y << " bound=" << bound;
      } else {
        EXPECT_GT(b, static_cast<double>(bound))
            << "x=" << x << " y=" << y << " bound=" << bound;
      }
    }
  }
}

TEST(LevenshteinTest, TriangleInequalityOnRandomTriples) {
  Rng rng(9);
  Alphabet ab("ab");
  for (int i = 0; i < 300; ++i) {
    std::string x = StringGen::UniformLength(rng, ab, 0, 10);
    std::string y = StringGen::UniformLength(rng, ab, 0, 10);
    std::string z = StringGen::UniformLength(rng, ab, 0, 10);
    EXPECT_LE(LevenshteinDistance(x, z),
              LevenshteinDistance(x, y) + LevenshteinDistance(y, z));
  }
}

TEST(EditDistanceAdapterTest, NameAndMetricFlag) {
  EditDistance d;
  EXPECT_EQ(d.name(), "dE");
  EXPECT_TRUE(d.is_metric());
  EXPECT_DOUBLE_EQ(d.Distance("abaa", "aab"), 2.0);
  EXPECT_DOUBLE_EQ(d.Distance("kitten", "sitting"), 3.0);
}

}  // namespace
}  // namespace cned
