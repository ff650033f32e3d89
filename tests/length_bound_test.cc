// Tests for the length-difference lower bounds (the LAESA sweep's "free
// zeroth pivot"), the DistanceBounded length early-outs, and the d_E
// kernels on pairs with long shared prefixes and suffixes.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "distances/levenshtein.h"
#include "distances/myers.h"
#include "distances/normalized.h"
#include "distances/registry.h"
#include "strings/alphabet.h"
#include "strings/string_gen.h"
#include "tests/levenshtein_matrix.h"

namespace cned {
namespace {

std::vector<std::string> RandomStrings(std::size_t count, Rng& rng) {
  Alphabet latin = Alphabet::Latin();
  std::vector<std::string> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(StringGen::UniformLength(rng, latin, 0, 20));
  }
  return out;
}

TEST(LengthLowerBoundTest, IsAValidLowerBoundForEveryDistance) {
  Rng rng(6101);
  auto strings = RandomStrings(40, rng);
  for (const auto& name : AllDistanceNames()) {
    auto dist = MakeDistance(name);
    for (std::size_t i = 0; i < strings.size(); i += 3) {
      for (std::size_t j = 0; j < strings.size(); j += 5) {
        const auto& x = strings[i];
        const auto& y = strings[j];
        const double lb = dist->LengthLowerBound(x.size(), y.size());
        EXPECT_LE(lb, dist->Distance(x, y) + 1e-12)
            << name << " x=" << x << " y=" << y;
      }
    }
  }
}

TEST(LengthLowerBoundTest, BatchMatchesScalar) {
  Rng rng(6102);
  auto strings = RandomStrings(30, rng);
  std::vector<std::uint32_t> lens;
  for (const auto& s : strings) {
    lens.push_back(static_cast<std::uint32_t>(s.size()));
  }
  for (const auto& name : AllDistanceNames()) {
    auto dist = MakeDistance(name);
    for (std::size_t q : {std::size_t{0}, std::size_t{7}, std::size_t{19}}) {
      std::vector<double> batch(lens.size());
      dist->LengthLowerBounds(q, lens.data(), lens.size(), batch.data());
      for (std::size_t i = 0; i < lens.size(); ++i) {
        EXPECT_DOUBLE_EQ(batch[i], dist->LengthLowerBound(q, lens[i]))
            << name << " qlen=" << q << " i=" << i;
      }
    }
  }
}

TEST(LengthLowerBoundTest, ClosedFormsMatchDefinitions) {
  EditDistance de;
  EXPECT_DOUBLE_EQ(de.LengthLowerBound(10, 3), 7.0);
  EXPECT_DOUBLE_EQ(de.LengthLowerBound(3, 10), 7.0);
  EXPECT_DOUBLE_EQ(de.LengthLowerBound(5, 5), 0.0);
  // dsum: gap / (|x|+|y|); dmax: gap / max; dYB: 2 gap / (|x|+|y|+gap).
  EXPECT_DOUBLE_EQ(DsumLengthLowerBound(10, 4), 6.0 / 14.0);
  EXPECT_DOUBLE_EQ(DmaxLengthLowerBound(10, 4), 6.0 / 10.0);
  EXPECT_DOUBLE_EQ(DminLengthLowerBound(10, 4), 6.0 / 4.0);
  EXPECT_DOUBLE_EQ(DybLengthLowerBound(10, 4), 12.0 / 20.0);
  // Both-empty convention: zero, no division by zero.
  EXPECT_DOUBLE_EQ(DsumLengthLowerBound(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(DybLengthLowerBound(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(DminLengthLowerBound(0, 3), 3.0);  // min clamped to 1
}

TEST(LengthEarlyOutTest, BoundedReturnsBoundOnLengthGap) {
  // When the length gap alone reaches the bound, DistanceBounded must
  // report an abandoned evaluation (value >= bound) without needing DP.
  const std::string x = "aaaaaaaaaa";  // 10
  const std::string y = "aaa";         // 3 -> gap 7
  for (const auto& name : {"dE", "dsum", "dmax", "dmin", "dYB", "dMV"}) {
    auto dist = MakeDistance(name);
    const double lb = dist->LengthLowerBound(x.size(), y.size());
    ASSERT_GT(lb, 0.0) << name;
    // Bound below the length lower bound: abandoned.
    EXPECT_GE(dist->DistanceBounded(x, y, lb * 0.5), lb * 0.5) << name;
    // Bound above the true distance: exact.
    const double d = dist->Distance(x, y);
    EXPECT_DOUBLE_EQ(dist->DistanceBounded(x, y, d * 1.5 + 1e-6), d) << name;
  }
}

TEST(AffixHeavyPairsTest, MatchFullDpReference) {
  // LevenshteinMatrix computes the full DP; the production kernel and the
  // reference DP must agree with it on affix-heavy pairs (shared stems,
  // perturbed words).
  auto reference = [](std::string_view x, std::string_view y) {
    return LevenshteinMatrix(x, y)[x.size()][y.size()];
  };
  std::vector<std::pair<std::string, std::string>> pairs{
      {"", ""},
      {"abc", "abc"},
      {"prefix_kitten_suffix", "prefix_sitting_suffix"},
      {"shared_head_x", "shared_head_yz"},
      {"x_shared_tail", "yz_shared_tail"},
      {"aaaa", "aa"},
      {"abcdef", "abcxef"},
      {"overlap", "laprevo"},
  };
  for (const auto& [x, y] : pairs) {
    EXPECT_EQ(LevenshteinDistance(x, y), reference(x, y))
        << "x=" << x << " y=" << y;
    EXPECT_EQ(MyersLevenshtein(x, y), reference(x, y))
        << "x=" << x << " y=" << y;
  }

  Rng rng(6103);
  Alphabet latin = Alphabet::Latin();
  for (int i = 0; i < 200; ++i) {
    // Random core with random shared affixes of random length.
    std::string affix_l = StringGen::UniformLength(rng, latin, 0, 8);
    std::string affix_r = StringGen::UniformLength(rng, latin, 0, 8);
    std::string x =
        affix_l + StringGen::UniformLength(rng, latin, 0, 10) + affix_r;
    std::string y =
        affix_l + StringGen::UniformLength(rng, latin, 0, 10) + affix_r;
    EXPECT_EQ(LevenshteinDistance(x, y), reference(x, y))
        << "x=" << x << " y=" << y;
    EXPECT_EQ(MyersLevenshtein(x, y), reference(x, y))
        << "x=" << x << " y=" << y;
    // The bounded entry point keeps its contract: the real bound
    // `bound + 1` maps onto the kernel's integer band `bound`.
    const auto exact = reference(x, y);
    for (std::size_t bound : {std::size_t{1}, std::size_t{3},
                              std::size_t{50}}) {
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

}  // namespace
}  // namespace cned
