// Laesa over S segments: an index over the shards of a
// ShardedPrototypeStore runs the *same* LAESA sweep as the S = 1 index over
// a flat store — neighbours, distances and QueryStats must be
// bit-identical for every registered distance (metric or not) and every
// shard count — and the batch engine's two-stage pivot pipeline must be
// bit-identical to its sequential per-query reference
// (ComputePivotRow + *WithPivotRow).

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

const std::size_t kShardCounts[] = {1, 2, 4, 8};

// Small sizes: the suite runs the cubic dC / dMV kernels too.
TEST(ShardedLaesaTest, BitIdenticalToFlatForEveryDistance) {
  Workload w = MakeWorkload(60, 15, 5100);
  PrototypeStore flat_store(w.protos);
  for (const auto& name : AllDistanceNames()) {
    auto dist = MakeDistance(name);
    Laesa flat(flat_store, dist, 8);
    for (std::size_t shards : kShardCounts) {
      ShardedPrototypeStore store(w.protos, shards);
      Laesa sharded(store, dist, 8);
      ASSERT_EQ(sharded.pivots(), flat.pivots()) << name << " S=" << shards;
      for (const auto& q : w.queries) {
        QueryStats fs, ss;
        const NeighborResult a = flat.Nearest(q, &fs);
        const NeighborResult b = sharded.Nearest(q, &ss);
        EXPECT_EQ(a.index, b.index) << name << " S=" << shards << " q=" << q;
        EXPECT_EQ(a.distance, b.distance) << name << " S=" << shards;
        EXPECT_TRUE(fs == ss)
            << name << " S=" << shards << " q=" << q << ": flat ("
            << fs.distance_computations << ", " << fs.bounded_abandons << ", "
            << fs.pivot_computations << ") != sharded ("
            << ss.distance_computations << ", " << ss.bounded_abandons << ", "
            << ss.pivot_computations << ")";

        QueryStats fk, sk;
        const auto ka = flat.KNearest(q, 5, &fk);
        const auto kb = sharded.KNearest(q, 5, &sk);
        ASSERT_EQ(ka.size(), kb.size()) << name << " S=" << shards;
        for (std::size_t i = 0; i < ka.size(); ++i) {
          EXPECT_EQ(ka[i].index, kb[i].index) << name << " S=" << shards;
          EXPECT_EQ(ka[i].distance, kb[i].distance) << name << " S=" << shards;
        }
        EXPECT_TRUE(fk == sk) << name << " S=" << shards;
      }
    }
  }
}

// The fig3 dictionary workload shape at a realistic size, on the cheap
// kernels (the acceptance check for the sharded refactor).
TEST(ShardedLaesaTest, Fig3DictionaryWorkloadIdentity) {
  Workload w = MakeWorkload(500, 80, 5200);
  PrototypeStore flat_store(w.protos);
  for (const char* name : {"dE", "dYB", "dmax"}) {
    auto dist = MakeDistance(name);
    for (std::size_t pivots : {10u, 40u}) {
      Laesa flat(flat_store, dist, pivots);
      for (std::size_t shards : kShardCounts) {
        ShardedPrototypeStore store(w.protos, shards);
        Laesa sharded(store, dist, pivots);
        QueryStats fs, ss;
        for (const auto& q : w.queries) {
          const NeighborResult a = flat.Nearest(q, &fs);
          const NeighborResult b = sharded.Nearest(q, &ss);
          ASSERT_EQ(a.index, b.index)
              << name << " pivots=" << pivots << " S=" << shards;
          ASSERT_EQ(a.distance, b.distance);
        }
        EXPECT_TRUE(fs == ss) << name << " pivots=" << pivots
                              << " S=" << shards;
      }
    }
  }
}

TEST(ShardedLaesaTest, WithPivotRowMatchesFlatWithPivotRow) {
  Workload w = MakeWorkload(60, 12, 5300);
  PrototypeStore flat_store(w.protos);
  for (const auto& name : AllDistanceNames()) {
    auto dist = MakeDistance(name);
    Laesa flat(flat_store, dist, 6);
    for (std::size_t shards : {2u, 4u}) {
      ShardedPrototypeStore store(w.protos, shards);
      Laesa sharded(store, dist, 6);
      std::vector<double> row_a(flat.pivot_count());
      std::vector<double> row_b(sharded.pivot_count());
      for (const auto& q : w.queries) {
        QueryStats fs, ss;
        flat.ComputePivotRow(q, row_a.data(), &fs);
        sharded.ComputePivotRow(q, row_b.data(), &ss);
        ASSERT_EQ(row_a, row_b) << name;
        const NeighborResult a =
            flat.KNearestWithPivotRow(q, 1, row_a.data(), &fs).at(0);
        const NeighborResult b =
            sharded.KNearestWithPivotRow(q, 1, row_b.data(), &ss).at(0);
        EXPECT_EQ(a.index, b.index) << name << " S=" << shards;
        EXPECT_EQ(a.distance, b.distance) << name << " S=" << shards;
        EXPECT_TRUE(fs == ss) << name << " S=" << shards;

        const auto ka = flat.KNearestWithPivotRow(q, 4, row_a.data());
        const auto kb = sharded.KNearestWithPivotRow(q, 4, row_b.data());
        ASSERT_EQ(ka.size(), kb.size()) << name;
        for (std::size_t i = 0; i < ka.size(); ++i) {
          EXPECT_EQ(ka[i].index, kb[i].index) << name;
          EXPECT_EQ(ka[i].distance, kb[i].distance) << name;
        }
      }
    }
  }
}

// The per-shard passes fan out through ParallelFor only once a lazy pass
// sees 2^20 live candidates, or a row seed 2^20 table entries; smaller
// suites always run them serially. 2^20 + 4096 short strings over four
// letters with 2 pivots reach both thresholds at S = 2 and 4, so the
// threaded schedule is held to the flat index's results and QueryStats.
TEST(ShardedLaesaTest, ParallelShardPassesMatchFlat) {
  Rng rng(6100);
  std::vector<std::string> protos((std::size_t{1} << 20) + 4096);
  for (std::string& s : protos) {
    s.resize(static_cast<std::size_t>(rng.UniformInt(1, 8)));
    for (char& c : s) c = static_cast<char>('a' + rng.UniformInt(0, 3));
  }
  // Queries may carry a fifth letter, so exact hits are not guaranteed.
  std::vector<std::string> queries(3);
  for (std::string& q : queries) {
    q.resize(static_cast<std::size_t>(rng.UniformInt(4, 8)));
    for (char& c : q) c = static_cast<char>('a' + rng.UniformInt(0, 4));
  }
  auto dist = MakeDistance("dE");
  PrototypeStore flat_store(protos);
  Laesa flat(flat_store, dist, 2);
  std::vector<double> row(flat.pivot_count());
  for (std::size_t shards : {2u, 4u}) {
    ShardedPrototypeStore store(protos, shards);
    Laesa sharded(store, dist, 2);
    ASSERT_EQ(sharded.pivots(), flat.pivots()) << "S=" << shards;
    for (const auto& q : queries) {
      for (std::size_t k : {1u, 5u}) {
        const std::string ctx =
            "S=" + std::to_string(shards) + " k=" + std::to_string(k) +
            " q=" + q;
        QueryStats fs, ss;
        const auto a = flat.KNearest(q, k, &fs);
        const auto b = sharded.KNearest(q, k, &ss);
        ASSERT_EQ(a.size(), b.size()) << ctx;
        for (std::size_t i = 0; i < a.size(); ++i) {
          EXPECT_EQ(a[i].index, b[i].index) << ctx;
          EXPECT_EQ(a[i].distance, b[i].distance) << ctx;
        }
        EXPECT_TRUE(fs == ss) << ctx << " (lazy)";

        QueryStats fr, sr;
        flat.ComputePivotRow(q, row.data(), &fr);
        sr = fr;
        const auto ra = flat.KNearestWithPivotRow(q, k, row.data(), &fr);
        const auto rb = sharded.KNearestWithPivotRow(q, k, row.data(), &sr);
        ASSERT_EQ(ra.size(), rb.size()) << ctx;
        for (std::size_t i = 0; i < ra.size(); ++i) {
          EXPECT_EQ(ra[i].index, rb[i].index) << ctx;
          EXPECT_EQ(ra[i].distance, rb[i].distance) << ctx;
        }
        EXPECT_TRUE(fr == sr) << ctx << " (row)";
      }
    }
  }
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
  Workload w = MakeWorkload(200, 0, 5600);
  Rng rng(5601);
  // Distinct query strings: stage deduplication is a no-op, so the merged
  // engine stats must equal the sequential two-stage sums exactly.
  auto queries_vec = MakeQueries(w.protos, 25, 3, Alphabet::Latin(), rng);
  std::sort(queries_vec.begin(), queries_vec.end());
  queries_vec.erase(std::unique(queries_vec.begin(), queries_vec.end()),
                    queries_vec.end());
  PrototypeStore queries(queries_vec);
  for (const char* name : {"dE", "dYB"}) {
    auto dist = MakeDistance(name);
    ShardedPrototypeStore store(w.protos, 4);
    Laesa sharded(store, dist, 10);

    QueryStats seq_stats;
    std::vector<double> row(sharded.pivot_count());
    std::vector<NeighborResult> sequential(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      sharded.ComputePivotRow(queries[i], row.data(), &seq_stats);
      sequential[i] =
          sharded.KNearestWithPivotRow(queries[i], 1, row.data(), &seq_stats)
              .at(0);
    }

    for (std::size_t threads : {std::size_t{0}, std::size_t{1},
                                std::size_t{3}}) {
      BatchQueryEngine::Options opt;
      opt.threads = threads;
      opt.pivot_stage = true;
      BatchQueryEngine engine(sharded, opt);
      QueryStats batch_stats;
      auto batched = engine.Nearest(queries, &batch_stats);
      ASSERT_EQ(batched.size(), sequential.size()) << name;
      for (std::size_t i = 0; i < batched.size(); ++i) {
        EXPECT_EQ(batched[i].index, sequential[i].index)
            << name << " threads=" << threads << " q=" << i;
        EXPECT_EQ(batched[i].distance, sequential[i].distance) << name;
      }
      EXPECT_TRUE(batch_stats == seq_stats)
          << name << " threads=" << threads << ": batched ("
          << batch_stats.distance_computations << ", "
          << batch_stats.bounded_abandons << ", "
          << batch_stats.pivot_computations << ") != sequential ("
          << seq_stats.distance_computations << ", "
          << seq_stats.bounded_abandons << ", "
          << seq_stats.pivot_computations << ")";
    }
  }
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

TEST(ShardedLaesaTest, EngineShardStatsMatchDirectCalls) {
  Workload w = MakeWorkload(200, 20, 5800);
  auto dist = MakeDistance("dE");
  ShardedPrototypeStore store(w.protos, 4);
  Laesa sharded(store, dist, 10);
  PrototypeStore queries(w.queries);

  std::vector<QueryStats> expected(sharded.shard_count());
  for (const auto& q : w.queries) {
    (void)sharded.KNearest(q, 1, nullptr, expected.data());
  }

  BatchQueryEngine engine(sharded);
  QueryStats merged;
  std::vector<QueryStats> shard_stats;
  (void)engine.Nearest(queries, &merged, &shard_stats);
  ASSERT_EQ(shard_stats.size(), expected.size());
  for (std::size_t s = 0; s < expected.size(); ++s) {
    EXPECT_TRUE(shard_stats[s] == expected[s]) << "shard " << s;
  }

  // An S = 1 index reports its one segment.
  PrototypeStore flat_store(w.protos);
  Laesa flat(flat_store, dist, 10);
  QueryStats one;
  for (const auto& q : w.queries) (void)flat.KNearest(q, 1, nullptr, &one);
  std::vector<QueryStats> flat_stats;
  (void)BatchQueryEngine(flat).Nearest(queries, nullptr, &flat_stats);
  ASSERT_EQ(flat_stats.size(), 1u);
  EXPECT_TRUE(flat_stats[0] == one);

  ExhaustiveSearch exhaustive(w.protos, dist);
  BatchQueryEngine exhaustive_engine(exhaustive);
  std::vector<QueryStats> bad;
  EXPECT_THROW(exhaustive_engine.Nearest(queries, nullptr, &bad),
               std::invalid_argument);
}

TEST(ShardedLaesaTest, EngineNearestReportsGlobalIds) {
  Workload w = MakeWorkload(120, 15, 5900);
  auto dist = MakeDistance("dYB");
  ShardedPrototypeStore store(w.protos, 3);
  Laesa sharded(store, dist, 8);
  PrototypeStore queries(w.queries);

  const auto batched = BatchQueryEngine(sharded).Nearest(queries);
  ASSERT_EQ(batched.size(), w.queries.size());
  for (std::size_t i = 0; i < w.queries.size(); ++i) {
    const NeighborResult want = sharded.Nearest(w.queries[i]);
    EXPECT_EQ(batched[i].index, want.index) << i;
    EXPECT_EQ(batched[i].distance, want.distance) << i;
  }
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
