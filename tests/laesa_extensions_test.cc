// Tests for the LAESA extensions beyond the paper's 1-NN search:
// k-nearest-neighbour queries and index serialisation.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datasets/dictionary_gen.h"
#include "datasets/perturb.h"
#include "distances/registry.h"
#include "search/exhaustive.h"
#include "search/laesa.h"
#include "tests/snapshot_test_util.h"

namespace cned {
namespace {

std::vector<std::string> Dict(std::size_t n, std::uint64_t seed) {
  DictionaryOptions opt;
  opt.word_count = n;
  opt.seed = seed;
  return GenerateDictionary(opt).strings;
}

TEST(LaesaKNearestTest, MatchesExhaustiveKNN) {
  auto protos = Dict(250, 701);
  Rng rng(702);
  auto queries = MakeQueries(protos, 30, 2, Alphabet::Latin(), rng);
  auto dist = MakeDistance("dE");
  Laesa laesa(protos, dist, 20);
  ExhaustiveSearch exact(protos, dist);
  for (const auto& q : queries) {
    for (std::size_t k : {1u, 3u, 7u}) {
      auto a = laesa.KNearest(q, k);
      auto b = exact.KNearest(q, k);
      ASSERT_EQ(a.size(), b.size()) << q;
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_NEAR(a[i].distance, b[i].distance, 1e-9)
            << "q=" << q << " k=" << k << " i=" << i;
      }
    }
  }
}

TEST(LaesaKNearestTest, SortedAndSavesComputations) {
  auto protos = Dict(500, 703);
  Rng rng(704);
  auto queries = MakeQueries(protos, 30, 2, Alphabet::Latin(), rng);
  Laesa laesa(protos, MakeDistance("dE"), 40);
  Laesa::QueryStats stats;
  for (const auto& q : queries) {
    auto r = laesa.KNearest(q, 5, &stats);
    ASSERT_EQ(r.size(), 5u);
    for (std::size_t i = 1; i < r.size(); ++i) {
      EXPECT_LE(r[i - 1].distance, r[i].distance);
    }
  }
  EXPECT_LT(stats.distance_computations,
            static_cast<std::uint64_t>(protos.size()) * queries.size());
}

TEST(LaesaKNearestTest, KLargerThanSetClamps) {
  auto protos = Dict(10, 705);
  Laesa laesa(protos, MakeDistance("dE"), 3);
  EXPECT_EQ(laesa.KNearest("zzz", 50).size(), protos.size());
}

TEST(LaesaSerializationTest, SaveLoadRoundtrip) {
  auto protos = Dict(150, 709);
  auto dist = MakeDistance("dE");
  Laesa original(protos, dist, 12);
  TempFile file("laesa_ext_roundtrip");
  original.Save(file.path());

  Laesa restored = Laesa::Load(file.path(), protos, dist);
  EXPECT_EQ(restored.num_pivots(), original.num_pivots());
  EXPECT_EQ(restored.pivots(), original.pivots());

  Rng rng(710);
  auto queries = MakeQueries(protos, 20, 2, Alphabet::Latin(), rng);
  for (const auto& q : queries) {
    auto a = original.Nearest(q);
    auto b = restored.Nearest(q);
    EXPECT_EQ(a.index, b.index) << q;
    EXPECT_DOUBLE_EQ(a.distance, b.distance);
  }
}

TEST(LaesaSerializationTest, LoadValidatesInput) {
  auto protos = Dict(20, 711);
  auto dist = MakeDistance("dE");
  TempFile file("laesa_ext_validate");
  {
    const std::string bad = "GARBAGE 9";
    WriteAll(file.path(), std::vector<char>(bad.begin(), bad.end()));
    EXPECT_THROW(Laesa::Load(file.path(), protos, dist), std::runtime_error);
  }
  Laesa original(protos, dist, 4);
  {
    original.Save(file.path());
    auto fewer = std::vector<std::string>(protos.begin(), protos.end() - 1);
    EXPECT_THROW(Laesa::Load(file.path(), fewer, dist), std::runtime_error);
  }
  {
    // Cut inside the table section, footer re-stamped: the walk, not the
    // checksum, must reject it.
    original.Save(file.path());
    std::vector<char> bytes = ReadAll(file.path());
    bytes.resize(bytes.size() - 2 * kBinaryAlignment);
    WriteAllRestamped(file.path(), bytes);
    EXPECT_THROW(Laesa::Load(file.path(), protos, dist), std::runtime_error);
  }
}

}  // namespace
}  // namespace cned
