// Differential test of the exact d_C DP, the `contextual_layers` entry of
// every sweep-kernel variant (search/sweep_kernel.h): each variant's entry
// must return the scalar entry's `ContextualResult` bit for bit, bounded
// and abandoned calls included, and `ContextualDistanceDetailed` under each
// variant must match an unbanded reference whenever d_C < bound and write
// DP cells exactly when the d_E gate lets the pair through.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/dp_workspace.h"
#include "common/harmonic.h"
#include "common/rng.h"
#include "core/contextual.h"
#include "datasets/dictionary_gen.h"
#include "datasets/perturb.h"
#include "distances/levenshtein.h"
#include "search/sweep_kernel.h"
#include "strings/string_gen.h"
#include "tests/snapshot_test_util.h"

namespace cned {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Reference: the unbanded Algorithm 1 (`MaxInsertionProfile`) with every
// layer scanned, the first strictly cheapest kept.
ContextualResult FullScan(std::string_view x, std::string_view y) {
  const std::size_t m = x.size(), n = y.size();
  ContextualResult best;
  if (m == 0 && n == 0) return best;
  best.distance = kInf;
  const std::vector<std::int32_t> profile = MaxInsertionProfile(x, y);
  for (std::size_t k = 0; k < profile.size(); ++k) {
    if (profile[k] < 0) continue;
    const auto ni = static_cast<std::size_t>(profile[k]);
    const double cost = ContextualPathCost(m, n, k, ni, GlobalHarmonic());
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

std::uint64_t Bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

void ExpectSame(const ContextualResult& got, const ContextualResult& want,
                const std::string& where) {
  EXPECT_EQ(Bits(got.distance), Bits(want.distance))
      << where << " got " << got.distance << " want " << want.distance;
  EXPECT_EQ(got.k, want.k) << where;
  EXPECT_EQ(got.insertions, want.insertions) << where;
  EXPECT_EQ(got.substitutions, want.substitutions) << where;
  EXPECT_EQ(got.deletions, want.deletions) << where;
}

// One (x, y, bound) through every available variant, against the scalar
// entry and against `full`, the reference.
void ExpectAgree(const std::string& x, const std::string& y, double bound,
                 const ContextualResult& full) {
  const std::string where = "x=" + x + " y=" + y + " b=" +
                            std::to_string(bound) + " |x|=" +
                            std::to_string(x.size()) +
                            " |y|=" + std::to_string(y.size());
  const std::optional<std::size_t> gate =
      ContextualEditLengthGate(x, y, bound, ThreadLocalHarmonic());
  const bool trivial = x.empty() && y.empty();  // answered before the gate
  std::optional<ContextualResult> scalar;
  if (gate && !trivial) {
    scalar = ScalarSweepKernels().contextual_layers(x, y, bound, *gate,
                                                    TlsDpWorkspace());
  }
  KernelGuard guard;
  for (const SweepKernels* kern : AvailableSweepKernels()) {
    const std::string at = std::string(kern->name) + " " + where;
    if (scalar) {
      ExpectSame(kern->contextual_layers(x, y, bound, *gate, TlsDpWorkspace()),
                 *scalar, at + " (entry)");
    }
    ASSERT_TRUE(SetActiveSweepKernels(kern->name));
    ResetContextualCellsEvaluated();
    const ContextualResult got = ContextualDistanceDetailed(x, y, bound);
    const std::uint64_t cells = ContextualCellsEvaluated();
    if (!(full.distance >= bound)) {  // below the bound, or a NaN bound
      ExpectSame(got, full, at);
    } else {
      EXPECT_GE(got.distance, bound) << at;
    }
    if (scalar) ExpectSame(got, *scalar, at + " (dispatched)");
    if (!trivial) {
      EXPECT_EQ(cells > 0, gate.has_value()) << at << " cells=" << cells;
    }
  }
}

// Unbounded, NaN and 0, and the floors of edit lengths d_E - 1, d_E and
// d_E + 1 with one ulp either side: the bounds where the gate's cap and the
// scan's bound stop move by one layer.
void ExpectAgreeAtBoundaries(const std::string& x, const std::string& y) {
  const ContextualResult full = FullScan(x, y);
  const std::size_t m = x.size(), n = y.size();
  const std::size_t e = LevenshteinDistance(x, y);
  const std::size_t gap = m > n ? m - n : n - m;
  std::vector<double> bounds = {kInf, std::numeric_limits<double>::quiet_NaN(),
                                0.0};
  for (std::size_t k = e > gap ? e - 1 : gap; k <= std::min(e + 1, m + n);
       ++k) {
    const double f = ContextualCostFloor(m, n, k, GlobalHarmonic());
    bounds.insert(bounds.end(),
                  {f, std::nextafter(f, kInf), std::nextafter(f, -kInf)});
  }
  for (double bound : bounds) ExpectAgree(x, y, bound, full);
}

TEST(ContextualLayersTest, EmptySidesAndEqualStrings) {
  Rng rng(3501);
  Alphabet ab("abcdefgh");
  for (std::size_t len : {0, 1, 2, 16, 31, 32, 33, 64, 126, 127, 128, 140}) {
    const std::string s = StringGen::UniformLength(rng, ab, len, len);
    ExpectAgreeAtBoundaries(s, s);
    ExpectAgreeAtBoundaries("", s);
    ExpectAgreeAtBoundaries(s, "");
  }
}

// m + n around one and two registers of 32 layers, random splits, over a
// small alphabet, a large one and two disjoint ones. Disjoint strings of
// equal length take every symbol by substitution (d_C = 1 at k = |x|), so
// the layers past 31 carry the answer.
TEST(ContextualLayersTest, RegisterBoundaries) {
  Rng rng(3502);
  const Alphabet small("ab"), large("abcdefghijklmnop");
  const Alphabet left("abcd"), right("wxyz");
  for (std::size_t total : {30, 31, 32, 33, 63, 64, 65}) {
    for (int t = 0; t < 12; ++t) {
      const std::size_t m = rng.Index(total + 1);
      const std::size_t n = total - m;
      ExpectAgreeAtBoundaries(StringGen::UniformLength(rng, small, m, m),
                              StringGen::UniformLength(rng, small, n, n));
      ExpectAgreeAtBoundaries(StringGen::UniformLength(rng, large, m, m),
                              StringGen::UniformLength(rng, large, n, n));
      ExpectAgreeAtBoundaries(StringGen::UniformLength(rng, left, m, m),
                              StringGen::UniformLength(rng, right, n, n));
    }
    const std::size_t half = total / 2;
    ExpectAgreeAtBoundaries(std::string(half, 'a'),
                            std::string(total - half, 'b'));
    const std::string x = StringGen::UniformLength(rng, large, half, half);
    ExpectAgreeAtBoundaries(x, PerturbString(x, 1 + rng.Index(4), large, rng));
  }
}

// |y| at the lane limit: 127 is the longest y whose insertion counts fit an
// int8 lane; 128 goes to the scalar entry. Short or empty x keeps every
// layer in four registers; near-duplicates of y reach the lanes through
// bounded calls, whose gate yields a small d_E.
TEST(ContextualLayersTest, LaneLimit) {
  Rng rng(3503);
  Alphabet ab("abcdefgh");
  for (std::size_t n : {126, 127, 128}) {
    for (int t = 0; t < 3; ++t) {
      const std::string y = StringGen::UniformLength(rng, ab, n, n);
      for (std::size_t m : {0, 1, 2}) {
        ExpectAgreeAtBoundaries(StringGen::UniformLength(rng, ab, m, m), y);
      }
      ExpectAgreeAtBoundaries(std::string(1, 'z'), y);
      ExpectAgreeAtBoundaries("", std::string(n, 'b'));
      ExpectAgreeAtBoundaries(PerturbString(y, 1 + rng.Index(5), ab, rng), y);
      ExpectAgreeAtBoundaries(y, PerturbString(y, 1 + rng.Index(5), ab, rng));
    }
  }
}

// The Fig. 3 regime: dictionary words paired at random, unbounded and at
// index-like bounds around the true value.
TEST(ContextualLayersTest, DictionaryPairs) {
  DictionaryOptions opt;
  opt.word_count = 40000;
  opt.seed = 3504;
  const Dataset words = GenerateDictionary(opt);
  Rng rng(3505);
  for (int t = 0; t < 20000; ++t) {
    const std::string& x = words.strings[rng.Index(words.size())];
    const std::string& y = words.strings[rng.Index(words.size())];
    const ContextualResult full = FullScan(x, y);
    const double d = full.distance;
    for (double bound : {kInf, d, std::nextafter(d, -kInf), 0.5 * d, 2.0 * d}) {
      ExpectAgree(x, y, bound, full);
    }
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace cned
