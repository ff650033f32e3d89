#include "search/counting_distance.h"

#include <gtest/gtest.h>

#include <memory>
#include <string_view>

#include "common/rng.h"
#include "datasets/dictionary_gen.h"
#include "datasets/perturb.h"
#include "distances/levenshtein.h"
#include "distances/registry.h"
#include "search/laesa.h"

namespace cned {
namespace {

TEST(CountingDistanceTest, CountsEvaluations) {
  CountingDistance c(std::make_shared<EditDistance>());
  EXPECT_EQ(c.count(), 0u);
  c.Distance("a", "b");
  c.Distance("ab", "ba");
  EXPECT_EQ(c.count(), 2u);
}

TEST(CountingDistanceTest, ResetClears) {
  CountingDistance c(std::make_shared<EditDistance>());
  c.Distance("a", "b");
  c.Reset();
  EXPECT_EQ(c.count(), 0u);
}

TEST(CountingDistanceTest, DelegatesValueAndMetadata) {
  CountingDistance c(MakeDistance("dE"));
  EXPECT_DOUBLE_EQ(c.Distance("kitten", "sitting"), 3.0);
  EXPECT_EQ(c.name(), "dE");
  EXPECT_TRUE(c.is_metric());
}

TEST(CountingDistanceTest, CountsEachPreparedCallOnce) {
  auto counter = std::make_shared<CountingDistance>(MakeDistance("dC"));
  const std::unique_ptr<PreparedDistance> prepared = counter->Prepare("abc");
  EXPECT_EQ(counter->count(), 0u);
  const std::string_view ys[2] = {"abd", "xyz"};
  EXPECT_EQ(prepared->Bounded(ys[0], 0.5),
            counter->DistanceBounded("abc", ys[0], 0.5));
  EXPECT_EQ(prepared->Bounded(ys[1], 0.5),
            counter->DistanceBounded("abc", ys[1], 0.5));
  EXPECT_EQ(counter->count(), 4u);
}

TEST(CountingDistanceTest, NonMetricFlagPropagates) {
  CountingDistance c(MakeDistance("dmax"));
  EXPECT_FALSE(c.is_metric());
}

// The wrapper must be invisible to an index: the length bounds reach the
// LAESA sweep's free zeroth pivot through it, and so does the wrapped
// distance's prepared evaluator, so the wrapped and the bare index pick the
// same pivots, return the same neighbours and report the same stats, and the
// wrapper's tally equals the index's own count.
TEST(CountingDistanceTest, WrappedLaesaMatchesPlainLaesa) {
  DictionaryOptions opt;
  opt.word_count = 300;
  opt.seed = 401;
  const Dataset dict = GenerateDictionary(opt);
  Rng rng(402);
  const auto queries =
      MakeQueries(dict.strings, 50, 2, Alphabet::Latin(), rng);
  for (const char* name : {"dE", "dYB", "dmax", "dC", "dC,h"}) {
    auto counter = std::make_shared<CountingDistance>(MakeDistance(name));
    const Laesa wrapped(dict.strings, counter, 20);
    const Laesa plain(dict.strings, MakeDistance(name), 20);
    ASSERT_EQ(wrapped.pivots(), plain.pivots()) << name;
    counter->Reset();
    QueryStats total;
    for (const auto& q : queries) {
      QueryStats sw, sp;
      const NeighborResult a = wrapped.Nearest(q, &sw);
      const NeighborResult b = plain.Nearest(q, &sp);
      EXPECT_EQ(a.index, b.index) << name << " q=" << q;
      EXPECT_EQ(a.distance, b.distance) << name << " q=" << q;
      EXPECT_TRUE(sw == sp) << name << " q=" << q;
      total += sw;
    }
    EXPECT_EQ(counter->count(), total.distance_computations) << name;
  }
}

}  // namespace
}  // namespace cned
