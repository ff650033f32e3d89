#include "search/laesa.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "datasets/dictionary_gen.h"
#include "datasets/perturb.h"
#include "distances/registry.h"
#include "search/counting_distance.h"
#include "search/exhaustive.h"
#include "strings/string_gen.h"

namespace cned {
namespace {

std::vector<std::string> SmallDictionary(std::size_t n, std::uint64_t seed) {
  DictionaryOptions opt;
  opt.word_count = n;
  opt.seed = seed;
  return GenerateDictionary(opt).strings;
}

TEST(LaesaTest, ExactForMetricDistances) {
  // With a true metric, LAESA must return exactly the exhaustive nearest
  // neighbour (same distance; ties may differ in index).
  auto protos = SmallDictionary(200, 101);
  Rng rng(102);
  Alphabet latin = Alphabet::Latin();
  auto queries = MakeQueries(protos, 60, 2, latin, rng);

  for (const char* name : {"dE", "dYB"}) {
    auto dist = MakeDistance(name);
    Laesa laesa(protos, dist, /*num_pivots=*/12);
    ExhaustiveSearch exact(protos, dist);
    for (const auto& q : queries) {
      auto a = laesa.Nearest(q);
      auto b = exact.Nearest(q);
      EXPECT_NEAR(a.distance, b.distance, 1e-9)
          << "distance=" << name << " query=" << q;
    }
  }
}

TEST(LaesaTest, ExactForContextualMetric) {
  auto protos = SmallDictionary(80, 103);
  Rng rng(104);
  auto queries = MakeQueries(protos, 20, 2, Alphabet::Latin(), rng);
  auto dist = MakeDistance("dC");
  Laesa laesa(protos, dist, 8);
  ExhaustiveSearch exact(protos, dist);
  for (const auto& q : queries) {
    EXPECT_NEAR(laesa.Nearest(q).distance, exact.Nearest(q).distance, 1e-9);
  }
}

TEST(LaesaTest, FewerComputationsThanExhaustive) {
  auto protos = SmallDictionary(400, 105);
  Rng rng(106);
  auto queries = MakeQueries(protos, 40, 2, Alphabet::Latin(), rng);
  Laesa laesa(protos, MakeDistance("dE"), 30);
  Laesa::QueryStats stats;
  for (const auto& q : queries) laesa.Nearest(q, &stats);
  double avg = static_cast<double>(stats.distance_computations) /
               static_cast<double>(queries.size());
  EXPECT_LT(avg, static_cast<double>(protos.size()) * 0.7)
      << "LAESA saved too little over exhaustive search";
  EXPECT_GE(avg, 1.0);
}

TEST(LaesaTest, ComputationsNeverExceedPrototypeCount) {
  auto protos = SmallDictionary(100, 107);
  Laesa laesa(protos, MakeDistance("dE"), 10);
  Laesa::QueryStats stats;
  laesa.Nearest("zzz", &stats);
  EXPECT_LE(stats.distance_computations, protos.size());
}

TEST(LaesaTest, WorksWithSinglePivotAndSinglePrototype) {
  std::vector<std::string> one{"hello"};
  Laesa laesa(one, MakeDistance("dE"), 1);
  auto r = laesa.Nearest("help");
  EXPECT_EQ(r.index, 0u);
  EXPECT_DOUBLE_EQ(r.distance, 2.0);
}

TEST(LaesaTest, ExplicitPivotIndicesRespected) {
  std::vector<std::string> protos{"aa", "bb", "cc", "dd"};
  Laesa laesa(protos, MakeDistance("dE"), std::vector<std::size_t>{2, 3});
  EXPECT_EQ(laesa.num_pivots(), 2u);
  EXPECT_EQ(laesa.pivots()[0], 2u);
  auto r = laesa.Nearest("ab");
  ExhaustiveSearch exact(protos, MakeDistance("dE"));
  EXPECT_NEAR(r.distance, exact.Nearest("ab").distance, 1e-12);
}

TEST(LaesaTest, MorePivotsFewerQueryComputations) {
  auto protos = SmallDictionary(500, 108);
  Rng rng(109);
  auto queries = MakeQueries(protos, 50, 2, Alphabet::Latin(), rng);
  std::uint64_t with_few, with_many;
  {
    Laesa laesa(protos, MakeDistance("dE"), 4);
    Laesa::QueryStats st;
    for (const auto& q : queries) laesa.Nearest(q, &st);
    with_few = st.distance_computations;
  }
  {
    Laesa laesa(protos, MakeDistance("dE"), 60);
    Laesa::QueryStats st;
    for (const auto& q : queries) laesa.Nearest(q, &st);
    with_many = st.distance_computations;
  }
  EXPECT_LT(with_many, with_few);
}

TEST(LaesaTest, PreprocessingCostAccounted) {
  auto protos = SmallDictionary(50, 110);
  Laesa laesa(protos, MakeDistance("dE"), 5);
  // Pivot selection (~5*50) + table (5*50).
  EXPECT_GE(laesa.preprocessing_computations(), 250u);
}

TEST(LaesaTest, InvalidConstructionThrows) {
  std::vector<std::string> protos{"a"};
  std::vector<std::string> empty;
  EXPECT_THROW(Laesa(empty, MakeDistance("dE"), 1), std::invalid_argument);
  EXPECT_THROW(Laesa(protos, MakeDistance("dE"), std::vector<std::size_t>{}),
               std::invalid_argument);
  EXPECT_THROW(Laesa(protos, MakeDistance("dE"), std::vector<std::size_t>{7}),
               std::invalid_argument);
}

TEST(LaesaTest, NonMetricHeuristicStillFindsGoodNeighbours) {
  // With dC,h (not guaranteed metric) LAESA may in principle miss the true
  // nearest neighbour; the paper uses it anyway. Verify that on a real-ish
  // workload the result matches exhaustive search almost always.
  auto protos = SmallDictionary(150, 111);
  Rng rng(112);
  auto queries = MakeQueries(protos, 40, 2, Alphabet::Latin(), rng);
  auto dist = MakeDistance("dC,h");
  Laesa laesa(protos, dist, 15);
  ExhaustiveSearch exact(protos, dist);
  int agree = 0;
  for (const auto& q : queries) {
    if (std::abs(laesa.Nearest(q).distance - exact.Nearest(q).distance) < 1e-9) {
      ++agree;
    }
  }
  EXPECT_GE(agree, 38);  // allow a rare miss
}

TEST(LaesaTest, DuplicatePivotIndicesAreHandled) {
  // The ablation constructor (and Load) accept duplicate pivot indices;
  // the sweep must count the *distinct* pivot candidates or its
  // pivots-first selection walks off the packed arrays.
  std::vector<std::string> protos{"aa", "ab", "zz", "zy", "mn"};
  auto dist = MakeDistance("dE");
  Laesa laesa(protos, dist, std::vector<std::size_t>{0, 0, 2});
  ExhaustiveSearch exact(protos, dist);
  for (const char* q : {"aa", "zz", "mn", "qq", "az"}) {
    EXPECT_DOUBLE_EQ(laesa.Nearest(q).distance, exact.Nearest(q).distance)
        << q;
  }
}

TEST(LaesaTest, RangeSearchReportsDuplicatePivotOnce) {
  // A pivot listed twice is still one prototype: its range hit must not
  // be reported once per pivots_ entry.
  std::vector<std::string> protos{"aa", "ab", "zz", "zy", "mn"};
  auto dist = MakeDistance("dE");
  Laesa laesa(protos, dist, std::vector<std::size_t>{0, 0, 2});
  for (const char* q : {"aa", "ab", "zz", "az"}) {
    for (double radius : {0.0, 1.0, 2.0}) {
      std::vector<std::size_t> expected;
      for (std::size_t i = 0; i < protos.size(); ++i) {
        if (dist->Distance(q, protos[i]) <= radius) expected.push_back(i);
      }
      std::vector<std::size_t> got;
      for (const NeighborResult& r : laesa.RangeSearch(q, radius)) {
        got.push_back(r.index);
      }
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expected) << q << " r=" << radius;
    }
  }
}

}  // namespace
}  // namespace cned
