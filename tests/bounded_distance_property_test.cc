// Property suite for the bounded-evaluation kernel engine: for EVERY
// registered distance, `DistanceBounded(x, y, b)` must be the same double as
// `Distance(x, y)` whenever the true distance is < b (bounded max-min pivot
// selection relies on bit equality), and must return some value >= b
// otherwise — over randomized string pairs and a spread of bounds (derived
// from the true distance, fixed constants, zero, infinity and NaN).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
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
