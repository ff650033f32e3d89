#include "search/pivot_selection.h"

#include <algorithm>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "distances/registry.h"
#include "strings/string_gen.h"

namespace cned {
namespace {

TEST(PivotSelectionTest, MaxMinPicksOutlyingPrototypes) {
  // Cluster of similar words + two far outliers: the greedy max-min
  // strategy must pick up the outliers early.
  std::vector<std::string> protos{"aaaa",        "aaab",     "aaba",
                                  "abaa",        "baaa",     "zzzzzzzzzz",
                                  "qqqqqqqqqqqq"};
  auto dist = MakeDistance("dE");
  auto pivots = SelectPivotsMaxMin(protos, *dist, 3);
  ASSERT_EQ(pivots.size(), 3u);
  EXPECT_EQ(pivots[0], 0u);
  std::set<std::size_t> chosen(pivots.begin(), pivots.end());
  EXPECT_TRUE(chosen.count(5) == 1 || chosen.count(6) == 1);
}

TEST(PivotSelectionTest, PivotsAreDistinct) {
  std::vector<std::string> protos{"a", "ab", "abc", "abcd", "abcde"};
  auto dist = MakeDistance("dE");
  auto pivots = SelectPivotsMaxMin(protos, *dist, 5);
  std::set<std::size_t> uniq(pivots.begin(), pivots.end());
  EXPECT_EQ(uniq.size(), pivots.size());
}

TEST(PivotSelectionTest, StopsEarlyOnDuplicatePrototypes) {
  // Only two distinct strings: asking for 4 pivots must not loop or pick a
  // duplicate at distance zero.
  std::vector<std::string> protos{"aa", "aa", "bb", "bb"};
  auto dist = MakeDistance("dE");
  auto pivots = SelectPivotsMaxMin(protos, *dist, 4);
  EXPECT_LE(pivots.size(), 2u);
}

TEST(PivotSelectionTest, ValidatesArguments) {
  std::vector<std::string> protos{"a", "b"};
  auto dist = MakeDistance("dE");
  EXPECT_THROW(SelectPivotsMaxMin(protos, *dist, 3), std::invalid_argument);
}

// Reference: the sequential max-min loop from prototype 0 with unbounded
// `Distance` calls, the selection that the bounded, parallel implementation
// must reproduce.
std::vector<std::size_t> ReferenceMaxMin(const std::vector<std::string>& protos,
                                         const StringDistance& distance,
                                         std::size_t count) {
  const std::size_t n = protos.size();
  std::vector<std::size_t> pivots{0};
  std::vector<double> min_dist(n, std::numeric_limits<double>::infinity());
  std::size_t current = 0;
  while (pivots.size() < count) {
    std::size_t next = 0;
    double best = -1.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (min_dist[i] == 0.0) continue;
      double d = distance.Distance(protos[current], protos[i]);
      min_dist[i] = std::min(min_dist[i], d);
      if (min_dist[i] > best) {
        best = min_dist[i];
        next = i;
      }
    }
    if (best <= 0.0) break;
    min_dist[next] = 0.0;
    pivots.push_back(next);
    current = next;
  }
  return pivots;
}

// 300 strings drawn from 60 distinct ones (the empty string included), so
// every string has exact duplicates and asking for more pivots than there
// are distinct strings makes the early stop fire.
std::vector<std::string> StringsWithDuplicates() {
  Rng rng(93);
  Alphabet ab("abcde");
  std::vector<std::string> distinct{""};
  while (distinct.size() < 60) {
    std::string s = StringGen::UniformLength(rng, ab, 1, 12);
    if (std::find(distinct.begin(), distinct.end(), s) == distinct.end()) {
      distinct.push_back(s);
    }
  }
  std::vector<std::string> protos;
  for (std::size_t i = 0; i < 300; ++i) {
    protos.push_back(i < distinct.size() ? distinct[i]
                                         : distinct[rng.Index(distinct.size())]);
  }
  rng.Shuffle(protos);
  return protos;
}

TEST(PivotSelectionTest, MatchesSequentialUnboundedReference) {
  const std::vector<std::string> protos = StringsWithDuplicates();
  const PrototypeStore flat(protos);
  const ShardedPrototypeStore sharded(protos, 3);
  for (const std::string& name : AllDistanceNames()) {
    SCOPED_TRACE(name);
    auto dist = MakeDistance(name);
    for (std::size_t count : {std::size_t{1}, std::size_t{24},
                              std::size_t{80}}) {
      const std::vector<std::size_t> want =
          ReferenceMaxMin(protos, *dist, count);
      if (count == 80) {
        // Only 60 distinct strings: the early stop must have fired.
        EXPECT_LE(want.size(), 60u);
      } else {
        EXPECT_EQ(want.size(), count);
      }
      EXPECT_EQ(SelectPivotsMaxMin(flat, *dist, count), want);
      EXPECT_EQ(SelectPivotsMaxMin(protos, *dist, count), want);
      EXPECT_EQ(SelectPivotsMaxMin(sharded, *dist, count), want);

      // From inside a ParallelFor body the nested loop runs inline.
      std::vector<std::vector<std::size_t>> nested(2);
      ParallelFor(nested.size(), [&](std::size_t t) {
        nested[t] = SelectPivotsMaxMin(flat, *dist, count);
      }, 2);
      EXPECT_EQ(nested[0], want);
      EXPECT_EQ(nested[1], want);
    }
  }
}

TEST(PivotSelectionTest, RandomPivotsValidAndDistinct) {
  Rng rng(91);
  auto pivots = SelectPivotsRandom(50, 10, rng);
  EXPECT_EQ(pivots.size(), 10u);
  std::set<std::size_t> uniq(pivots.begin(), pivots.end());
  EXPECT_EQ(uniq.size(), 10u);
  EXPECT_TRUE(std::all_of(pivots.begin(), pivots.end(),
                          [](std::size_t p) { return p < 50; }));
}

TEST(PivotSelectionTest, RandomRejectsOversizedRequest) {
  Rng rng(92);
  EXPECT_THROW(SelectPivotsRandom(5, 6, rng), std::invalid_argument);
}

}  // namespace
}  // namespace cned
