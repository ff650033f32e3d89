// Laesa over S segments: an index over the shards of a
// ShardedPrototypeStore runs the *same* LAESA sweep as the S = 1 index over
// a flat store — neighbours, distances and QueryStats must be
// bit-identical for every registered distance (metric or not) and every
// shard count — and the batch engine's two-stage pivot pipeline must be
// bit-identical to its sequential per-query reference
// (ComputePivotRow + *WithPivotRow). The cross-path cases run on the path
// matrix (tests/path_matrix.h).

#include "search/laesa.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datasets/dictionary_gen.h"
#include "datasets/perturb.h"
#include "datasets/prototype_store.h"
#include "datasets/sharded_prototype_store.h"
#include "distances/registry.h"
#include "search/batch_engine.h"
#include "search/exhaustive.h"
#include "tests/path_matrix.h"

namespace cned {
namespace {

struct Workload {
  std::vector<std::string> protos;
  std::vector<std::string> queries;
};

Workload MakeWorkload(std::size_t words, std::size_t queries,
                      std::uint64_t seed) {
  DictionaryOptions opt;
  opt.word_count = words;
  opt.seed = seed;
  Workload w;
  w.protos = GenerateDictionary(opt).strings;
  Rng rng(seed + 1);
  w.queries = MakeQueries(w.protos, queries, 2, Alphabet::Latin(), rng);
  return w;
}

/// The flat-vs-sharded matrix over `w` at every shard count.
PathMatrix ShardMatrix(const Workload& w, std::size_t pivots) {
  PathMatrix m;
  m.protos = w.protos;
  m.queries = w.queries;
  m.pivots = pivots;
  m.shards = {1, 2, 4, 8};
  return m;
}

// Small sizes: the suite runs the cubic dC / dMV kernels too.
TEST(ShardedLaesaTest, BitIdenticalToFlatForEveryDistance) {
  PathMatrix m = ShardMatrix(MakeWorkload(60, 15, 5100), 8);
  m.distances = AllDistanceNames();
  m.ks = {1, 5};
  RunPathMatrix(m);
}

// The fig3 dictionary workload shape at a realistic size, on the cheap
// kernels (the acceptance check for the sharded refactor).
TEST(ShardedLaesaTest, Fig3DictionaryWorkloadIdentity) {
  const Workload w = MakeWorkload(500, 80, 5200);
  for (std::size_t pivots : {10u, 40u}) {
    PathMatrix m = ShardMatrix(w, pivots);
    m.distances = {"dE", "dYB", "dmax"};
    RunPathMatrix(m);
  }
}

TEST(ShardedLaesaTest, WithPivotRowMatchesFlatWithPivotRow) {
  PathMatrix m = ShardMatrix(MakeWorkload(60, 12, 5300), 6);
  m.distances = AllDistanceNames();
  m.shards = {2, 4};
  m.entries = {Entry::kRow};
  m.ks = {1, 4};
  RunPathMatrix(m);
}

// The per-shard passes fan out through ParallelFor only once their work
// reaches 2^20: N candidates for the length and scatter passes, visited
// rows x N table entries for the lazy and row sweeps' dense seeds; smaller
// suites always run them serially. 2^20 + 4096 short strings over four
// letters with 2 pivots reach every threshold at S = 2 and 4, so the
// threaded schedule is held to the flat index's results and QueryStats.
TEST(ShardedLaesaTest, ParallelShardPassesMatchFlat) {
  Rng rng(6100);
  PathMatrix m;
  m.protos.resize((std::size_t{1} << 20) + 4096);
  for (std::string& s : m.protos) {
    s.resize(static_cast<std::size_t>(rng.UniformInt(1, 8)));
    for (char& c : s) c = static_cast<char>('a' + rng.UniformInt(0, 3));
  }
  // Queries may carry a fifth letter, so exact hits are not guaranteed.
  m.queries.resize(3);
  for (std::string& q : m.queries) {
    q.resize(static_cast<std::size_t>(rng.UniformInt(4, 8)));
    for (char& c : q) c = static_cast<char>('a' + rng.UniformInt(0, 4));
  }
  m.pivots = 2;
  m.shards = {2, 4};
  m.entries = {Entry::kLazy, Entry::kRow};
  m.ks = {1, 5};
  RunPathMatrix(m);
}

TEST(ShardedLaesaTest, KNearestDistancesMatchExhaustive) {
  Workload w = MakeWorkload(250, 25, 5400);
  auto dist = MakeDistance("dE");
  ShardedPrototypeStore store(w.protos, 4);
  Laesa sharded(store, dist, 20);
  ExhaustiveSearch exact(w.protos, dist);
  for (const auto& q : w.queries) {
    for (std::size_t k : {1u, 3u, 7u}) {
      auto a = sharded.KNearest(q, k);
      auto b = exact.KNearest(q, k);
      ASSERT_EQ(a.size(), b.size()) << q;
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_NEAR(a[i].distance, b[i].distance, 1e-9)
            << "q=" << q << " k=" << k << " i=" << i;
      }
    }
  }
}

TEST(ShardedLaesaTest, PerShardStatsSumToMergedStats) {
  Workload w = MakeWorkload(300, 30, 5500);
  auto dist = MakeDistance("dYB");
  ShardedPrototypeStore store(w.protos, 4);
  Laesa sharded(store, dist, 12);
  for (const auto& q : w.queries) {
    QueryStats merged;
    std::vector<QueryStats> per_shard(sharded.shard_count());
    (void)sharded.KNearest(q, 1, &merged, per_shard.data());
    QueryStats sum;
    for (const QueryStats& s : per_shard) sum += s;
    EXPECT_TRUE(sum == merged) << q;
  }
}

TEST(ShardedLaesaTest, EnginePivotStageMatchesSequentialReference) {
  PathMatrix m = ShardMatrix(MakeWorkload(200, 0, 5600), 10);
  Rng rng(5601);
  // Distinct query strings: stage deduplication is a no-op, so the merged
  // engine stats must equal the sequential two-stage sums exactly.
  m.queries = MakeQueries(m.protos, 25, 3, Alphabet::Latin(), rng);
  std::sort(m.queries.begin(), m.queries.end());
  m.queries.erase(std::unique(m.queries.begin(), m.queries.end()),
                  m.queries.end());
  m.distances = {"dE", "dYB"};
  m.shards = {4};
  m.entries = {Entry::kRow, Entry::kBatch};
  m.threads = {0, 1, 3};
  RunPathMatrix(m);
}

TEST(ShardedLaesaTest, EnginePivotStageDeduplicatesRepeatedQueries) {
  Workload w = MakeWorkload(150, 0, 5700);
  Rng rng(5701);
  auto unique = MakeQueries(w.protos, 6, 2, Alphabet::Latin(), rng);
  PrototypeStore queries;
  for (std::size_t i = 0; i < 30; ++i) queries.Add(unique[i % unique.size()]);

  auto dist = MakeDistance("dE");
  ShardedPrototypeStore store(w.protos, 2);
  Laesa sharded(store, dist, 8);

  BatchQueryEngine::Options opt;
  opt.pivot_stage = true;
  BatchQueryEngine engine(sharded, opt);
  QueryStats stats;
  auto results = engine.Nearest(queries, &stats);

  // The stage runs once per *unique* query string.
  EXPECT_EQ(stats.pivot_computations, unique.size() * sharded.pivot_count());

  // Results still match the per-query reference.
  std::vector<double> row(sharded.pivot_count());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    sharded.ComputePivotRow(queries[i], row.data());
    const NeighborResult expect =
        sharded.KNearestWithPivotRow(queries[i], 1, row.data()).at(0);
    EXPECT_EQ(results[i].index, expect.index) << i;
    EXPECT_EQ(results[i].distance, expect.distance) << i;
  }
}

// The plain engine reports global ids, its merged stats and each shard's
// (one entry for a flat index); a searcher without segments cannot.
TEST(ShardedLaesaTest, EngineShardStatsMatchDirectCalls) {
  PathMatrix m = ShardMatrix(MakeWorkload(200, 20, 5800), 10);
  m.shards = {4};
  m.entries = {Entry::kBatchLazy};
  m.segments = true;
  RunPathMatrix(m);

  ExhaustiveSearch exhaustive(m.protos, MakeDistance("dE"));
  BatchQueryEngine exhaustive_engine(exhaustive);
  std::vector<QueryStats> bad;
  EXPECT_THROW(exhaustive_engine.Nearest(m.queries, nullptr, &bad),
               std::invalid_argument);
}

TEST(ShardedLaesaTest, EngineNearestReportsGlobalIds) {
  PathMatrix m = ShardMatrix(MakeWorkload(120, 15, 5900), 8);
  m.distances = {"dYB"};
  m.shards = {3};
  m.entries = {Entry::kBatchLazy};
  RunPathMatrix(m);
}

TEST(ShardedLaesaTest, RejectsEmptyStoreAndZeroPivots) {
  ShardedPrototypeStore empty(std::vector<std::string>{}, 2);
  EXPECT_THROW(Laesa(empty, MakeDistance("dE"), 4),
               std::invalid_argument);
  ShardedPrototypeStore tiny(std::vector<std::string>{"ab", "cd"}, 2);
  EXPECT_THROW(Laesa(tiny, MakeDistance("dE"), 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace cned
