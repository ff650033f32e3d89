#include "metric/metric_validator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/contextual.h"
#include "distances/levenshtein.h"
#include "distances/normalized.h"
#include "strings/string_gen.h"

namespace cned {
namespace {

/// Verifies d(x,y) == 0 iff x == y, and d(x,y) == d(y,x), over all pairs of
/// `sample`. Returns a human-readable description of the first failure, or
/// empty string if all hold within `tol`.
std::string CheckIdentityAndSymmetry(const StringDistance& dist,
                                     const std::vector<std::string>& sample,
                                     double tol = 1e-9) {
  std::ostringstream os;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    if (std::abs(dist.Distance(sample[i], sample[i])) > tol) {
      os << "d(x,x) != 0 for x=\"" << sample[i] << "\"";
      return os.str();
    }
    for (std::size_t j = i + 1; j < sample.size(); ++j) {
      double dij = dist.Distance(sample[i], sample[j]);
      double dji = dist.Distance(sample[j], sample[i]);
      if (std::abs(dij - dji) > tol) {
        os << "asymmetry for (\"" << sample[i] << "\", \"" << sample[j]
           << "\"): " << dij << " vs " << dji;
        return os.str();
      }
      if (sample[i] != sample[j] && dij <= tol) {
        os << "d(x,y) == 0 for distinct x=\"" << sample[i] << "\" y=\""
           << sample[j] << "\"";
        return os.str();
      }
    }
  }
  return "";
}

TEST(MetricValidatorTest, FindsPaperCounterexampleForDsum) {
  SumNormalizedDistance dsum;
  std::vector<std::string> sample{"ab", "aba", "ba"};
  auto v = FindTriangleViolation(dsum, sample);
  ASSERT_TRUE(v.has_value());
  EXPECT_GT(v->margin, 0.0);
  // The witness must be the paper's triple (in some order).
  EXPECT_EQ(v->y, "aba");  // the middle string of the broken triangle
}

TEST(MetricValidatorTest, FindsViolationsForDmaxAndDmin) {
  MaxNormalizedDistance dmax;
  MinNormalizedDistance dmin;
  std::vector<std::string> s1{"ab", "aba", "ba"};
  EXPECT_TRUE(FindTriangleViolation(dmax, s1).has_value());
  std::vector<std::string> s2{"b", "ba", "aa"};
  EXPECT_TRUE(FindTriangleViolation(dmin, s2).has_value());
}

TEST(MetricValidatorTest, EditDistancePassesOnRandomSample) {
  EditDistance de;
  Rng rng(81);
  Alphabet ab("ab");
  auto sample = StringGen::Batch(rng, ab, 25, 0, 8);
  EXPECT_FALSE(FindTriangleViolation(de, sample).has_value());
  EXPECT_EQ(CheckIdentityAndSymmetry(de, sample), "");
}

TEST(MetricValidatorTest, YujianBoPassesOnRandomSample) {
  YujianBoDistance dyb;
  Rng rng(82);
  Alphabet ab("abc");
  auto sample = StringGen::Batch(rng, ab, 25, 0, 8);
  EXPECT_FALSE(FindTriangleViolation(dyb, sample).has_value());
}

TEST(MetricValidatorTest, ContextualPassesOnRandomSample) {
  ContextualEditDistance dc;
  Rng rng(83);
  Alphabet ab("ab");
  auto sample = StringGen::Batch(rng, ab, 20, 0, 7);
  EXPECT_FALSE(FindTriangleViolation(dc, sample, 1e-9).has_value());
  EXPECT_EQ(CheckIdentityAndSymmetry(dc, sample), "");
}

TEST(MetricValidatorTest, IdentityCheckCatchesDuplicateDistanceZero) {
  // A degenerate "distance" that maps everything to 0 must be flagged.
  class Zero final : public StringDistance {
   public:
    double Distance(std::string_view, std::string_view) const override {
      return 0.0;
    }
    std::string name() const override { return "zero"; }
    bool is_metric() const override { return false; }
  };
  Zero z;
  std::vector<std::string> sample{"a", "b"};
  EXPECT_NE(CheckIdentityAndSymmetry(z, sample), "");
}

TEST(MetricValidatorTest, ReturnsWorstViolation) {
  SumNormalizedDistance dsum;
  // Add irrelevant strings; the validator must still locate the violation
  // and report the largest margin.
  std::vector<std::string> sample{"ab", "aba", "ba", "aaaa", "abab"};
  auto v = FindTriangleViolation(dsum, sample);
  ASSERT_TRUE(v.has_value());
  double margin_check =
      dsum.Distance(v->x, v->z) -
      (dsum.Distance(v->x, v->y) + dsum.Distance(v->y, v->z));
  EXPECT_NEAR(v->margin, margin_check, 1e-12);
}

}  // namespace
}  // namespace cned
