// Property suite for the bounded-evaluation kernel engine: for EVERY
// registered distance, `DistanceBounded(x, y, b)` must be the same double as
// `Distance(x, y)` whenever the true distance is < b (bounded max-min pivot
// selection relies on bit equality), and must return some value >= b
// otherwise — over randomized string pairs and a spread of bounds (derived
// from the true distance, fixed constants, zero, infinity and NaN). Every
// distance's prepared evaluator (`StringDistance::Prepare`) returns
// `DistanceBounded` bit for bit.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "datasets/dictionary_gen.h"
#include "distances/registry.h"
#include "strings/string_gen.h"

namespace cned {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

class BoundedDistanceTest : public ::testing::TestWithParam<std::string> {
 protected:
  StringDistancePtr dist_ = MakeDistance(GetParam());
};

void CheckContract(const StringDistance& dist, const std::string& x,
                   const std::string& y, double bound) {
  const double exact = dist.Distance(x, y);
  const double bounded = dist.DistanceBounded(x, y, bound);
  if (exact < bound) {
    EXPECT_EQ(bounded, exact)
        << dist.name() << " x=" << x << " y=" << y << " bound=" << bound;
  } else {
    EXPECT_GE(bounded, bound)
        << dist.name() << " x=" << x << " y=" << y << " bound=" << bound;
  }
}

TEST_P(BoundedDistanceTest, ExactBelowBoundAtLeastBoundAbove) {
  Rng rng(7001);
  Alphabet ab("abcd");
  for (int t = 0; t < 120; ++t) {
    std::string x = StringGen::UniformLength(rng, ab, 0, 14);
    std::string y = StringGen::UniformLength(rng, ab, 0, 14);
    const double exact = dist_->Distance(x, y);
    // Bounds straddling the true value, including the value itself (where
    // the contract's two branches meet) and its floating-point neighbours.
    const std::vector<double> bounds = {
        0.0,
        exact * 0.25,
        exact * 0.5,
        std::nextafter(exact, -kInf),
        exact,
        std::nextafter(exact, kInf),
        exact * 1.5 + 0.01,
        exact + 1.0,
        kInf,
    };
    for (double b : bounds) CheckContract(*dist_, x, y, b);
  }
}

TEST_P(BoundedDistanceTest, SimilarStringsSmallBounds) {
  // The regime the indexes live in: near-duplicate strings and a tight
  // incumbent bound (this is where banded kernels abandon most).
  Rng rng(7002);
  Alphabet ab("abcdefgh");
  for (int t = 0; t < 60; ++t) {
    std::string x = StringGen::UniformLength(rng, ab, 6, 24);
    std::string y = x;
    for (int e = 0; e < 2 && !y.empty(); ++e) {
      y[rng.Index(y.size())] = ab.symbol(rng.Index(ab.size()));
    }
    for (double b : {0.01, 0.05, 0.2, 1.0, 3.0}) {
      CheckContract(*dist_, x, y, b);
    }
  }
}

TEST_P(BoundedDistanceTest, InfiniteBoundIsPlainDistance) {
  Rng rng(7003);
  Alphabet ab("ab");
  for (int t = 0; t < 40; ++t) {
    std::string x = StringGen::UniformLength(rng, ab, 0, 10);
    std::string y = StringGen::UniformLength(rng, ab, 0, 10);
    EXPECT_EQ(dist_->DistanceBounded(x, y, kInf), dist_->Distance(x, y));
  }
}

TEST_P(BoundedDistanceTest, NaNBoundIsPlainDistance) {
  // A NaN bound orders below nothing, so no result may be abandoned: every
  // kernel treats it as unbounded and returns the exact value.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(7004);
  Alphabet ab("abcd");
  for (int t = 0; t < 40; ++t) {
    std::string x = StringGen::UniformLength(rng, ab, 0, 20);
    std::string y = StringGen::UniformLength(rng, ab, 0, 20);
    EXPECT_EQ(dist_->DistanceBounded(x, y, nan), dist_->Distance(x, y))
        << dist_->name() << " x=" << x << " y=" << y;
  }
}

std::uint64_t Bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// Dictionary words, and the pairs of them whose distance changes in the last
// bit under a swap of the arguments (dC and dC,h add their harmonic ranges
// in argument order; the other distances have none).
std::vector<std::pair<std::string, std::string>> PreparedPairs(
    const StringDistance& dist, std::size_t* asymmetric) {
  DictionaryOptions opt;
  opt.word_count = 120;
  opt.seed = 7005;
  const std::vector<std::string> words = GenerateDictionary(opt).strings;
  std::vector<std::pair<std::string, std::string>> pairs;
  *asymmetric = 0;
  for (std::size_t i = 0; i < words.size(); ++i) {
    for (std::size_t j = 0; j < words.size(); ++j) {
      const bool swapped = Bits(dist.Distance(words[i], words[j])) !=
                           Bits(dist.Distance(words[j], words[i]));
      // Every asymmetric pair, and a sample of the others.
      if (swapped || (i * words.size() + j) % 97 == 0) {
        pairs.emplace_back(words[i], words[j]);
        *asymmetric += swapped;
      }
    }
  }
  Rng rng(7006);
  Alphabet ab("ab");
  for (int t = 0; t < 40; ++t) {
    pairs.emplace_back(StringGen::UniformLength(rng, ab, 0, 70),
                       StringGen::UniformLength(rng, ab, 0, 70));
  }
  pairs.emplace_back("", "");
  pairs.emplace_back("", "abc");
  pairs.emplace_back("abc", "");
  return pairs;
}

// `Prepare(x)->Bounded(y, b)` is `DistanceBounded(x, y, b)` bit for bit, at
// every bound a search passes: +inf (the pivot rows), NaN, 0 and the exact
// value with its neighbours, with x the first argument also where a swap
// would change the last bit. One evaluator serves every call of its x, so
// its per-bound caches are exercised as a search exercises them.
TEST_P(BoundedDistanceTest, PreparedIsDistanceBoundedBitForBit) {
  std::size_t asymmetric = 0;
  const auto pairs = PreparedPairs(*dist_, &asymmetric);
  if (GetParam() == "dC" || GetParam() == "dC,h") {
    EXPECT_GT(asymmetric, 0u) << "no pair differs under a swap";
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [x, y] : pairs) {
    const std::unique_ptr<PreparedDistance> prepared = dist_->Prepare(x);
    const double exact = dist_->Distance(x, y);
    for (double b : {kInf, nan, 0.0, std::nextafter(exact, -kInf), exact,
                     std::nextafter(exact, kInf), exact * 0.5, kInf}) {
      EXPECT_EQ(Bits(prepared->Bounded(y, b)),
                Bits(dist_->DistanceBounded(x, y, b)))
          << dist_->name() << " x=" << x << " y=" << y << " bound=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDistances, BoundedDistanceTest,
                         ::testing::ValuesIn(AllDistanceNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == ',') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace cned
