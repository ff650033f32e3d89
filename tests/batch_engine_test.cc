// Determinism contract of the BatchQueryEngine: for every registered
// distance, batched Nearest / KNearest / Classify must return bit-identical
// results to the sequential per-query loop, and the merged QueryStats must
// equal the sequential sums — regardless of thread count or schedule.

#include "search/batch_engine.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "datasets/dictionary_gen.h"
#include "datasets/perturb.h"
#include "datasets/prototype_store.h"
#include "distances/registry.h"
#include "search/aesa.h"
#include "search/bk_tree.h"
#include "search/exhaustive.h"
#include "search/knn_classifier.h"
#include "search/laesa.h"

namespace cned {
namespace {

struct Workload {
  PrototypeStore protos;
  PrototypeStore queries;
};

// Small sizes: the suite runs the cubic dC / dMV kernels too.
Workload MakeWorkload(std::uint64_t seed) {
  DictionaryOptions opt;
  opt.word_count = 50;
  opt.seed = seed;
  auto strings = GenerateDictionary(opt).strings;
  Rng rng(seed + 1);
  auto query_strings = MakeQueries(strings, 12, 2, Alphabet::Latin(), rng);
  return {PrototypeStore(strings), PrototypeStore(query_strings)};
}

TEST(BatchEngineTest, BitIdenticalToSequentialForEveryDistance) {
  Workload w = MakeWorkload(4100);
  for (const auto& name : AllDistanceNames()) {
    auto dist = MakeDistance(name);
    Laesa laesa(w.protos, dist, 8);

    QueryStats seq_stats;
    std::vector<NeighborResult> sequential(w.queries.size());
    for (std::size_t i = 0; i < w.queries.size(); ++i) {
      sequential[i] = laesa.Nearest(w.queries[i], &seq_stats);
    }

    for (std::size_t threads : {std::size_t{0}, std::size_t{1},
                                std::size_t{3}}) {
      QueryStats batch_stats;
      BatchQueryEngine engine(laesa, {threads});
      auto batched = engine.Nearest(w.queries, &batch_stats);
      ASSERT_EQ(batched.size(), sequential.size()) << name;
      for (std::size_t i = 0; i < batched.size(); ++i) {
        EXPECT_EQ(batched[i].index, sequential[i].index)
            << name << " threads=" << threads << " q=" << i;
        // Bit-identical, not approximately equal.
        EXPECT_EQ(batched[i].distance, sequential[i].distance)
            << name << " threads=" << threads << " q=" << i;
      }
      EXPECT_TRUE(batch_stats == seq_stats)
          << name << " threads=" << threads << ": batched stats ("
          << batch_stats.distance_computations << ", "
          << batch_stats.bounded_abandons << ") != sequential ("
          << seq_stats.distance_computations << ", "
          << seq_stats.bounded_abandons << ")";
    }
  }
}

TEST(BatchEngineTest, KNearestMatchesSequential) {
  Workload w = MakeWorkload(4200);
  auto dist = MakeDistance("dE");
  ExhaustiveSearch exact(w.protos, dist);

  QueryStats seq_stats;
  std::vector<std::vector<NeighborResult>> sequential(w.queries.size());
  for (std::size_t i = 0; i < w.queries.size(); ++i) {
    sequential[i] = exact.KNearest(w.queries[i], 5, &seq_stats);
  }

  QueryStats batch_stats;
  BatchQueryEngine engine(exact);
  auto batched = engine.KNearest(w.queries, 5, &batch_stats);
  ASSERT_EQ(batched.size(), sequential.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    ASSERT_EQ(batched[i].size(), sequential[i].size()) << i;
    for (std::size_t j = 0; j < batched[i].size(); ++j) {
      EXPECT_EQ(batched[i][j].index, sequential[i][j].index) << i;
      EXPECT_EQ(batched[i][j].distance, sequential[i][j].distance) << i;
    }
  }
  EXPECT_TRUE(batch_stats == seq_stats);
}

TEST(BatchEngineTest, ClassifyMatchesSequentialClassifier) {
  DictionaryOptions opt;
  opt.word_count = 60;
  opt.seed = 4300;
  auto strings = GenerateDictionary(opt).strings;
  std::vector<int> labels(strings.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i % 4);
  }
  PrototypeStore protos(strings);
  Rng rng(4301);
  PrototypeStore queries(
      MakeQueries(strings, 20, 2, Alphabet::Latin(), rng));

  auto dist = MakeDistance("dYB");
  Laesa laesa(protos, dist, 6);
  NearestNeighborClassifier clf(laesa, labels);

  std::vector<int> sequential(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    sequential[i] = clf.Classify(queries[i]);
  }

  BatchQueryEngine engine(laesa);
  EXPECT_EQ(engine.Classify(queries, labels), sequential);
  EXPECT_EQ(clf.ClassifyBatch(queries), sequential);
}

TEST(BatchEngineTest, KnnClassifyBatchMatchesSequential) {
  DictionaryOptions opt;
  opt.word_count = 40;
  opt.seed = 4400;
  auto strings = GenerateDictionary(opt).strings;
  std::vector<int> labels(strings.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i % 3);
  }
  PrototypeStore protos(strings);
  Rng rng(4401);
  PrototypeStore queries(
      MakeQueries(strings, 15, 2, Alphabet::Latin(), rng));

  auto dist = MakeDistance("dE");
  ExhaustiveSearch exact(protos, dist);
  std::vector<int> sequential(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    sequential[i] = KnnClassify(exact, labels, queries[i], 3);
  }
  EXPECT_EQ(KnnClassifyBatch(exact, labels, queries, 3), sequential);
}

// Every index family now supports the batch engine's k-NN entry point:
// AESA and the BK-tree (the two late additions) must match the exhaustive
// oracle's distances and stay sorted, driven through the engine.
TEST(BatchEngineTest, KNearestCoversAesaAndBkTree) {
  Workload w = MakeWorkload(4500);
  auto dist = MakeDistance("dE");
  ExhaustiveSearch exact(w.protos, dist);
  std::vector<std::vector<NeighborResult>> oracle(w.queries.size());
  for (std::size_t i = 0; i < w.queries.size(); ++i) {
    oracle[i] = exact.KNearest(w.queries[i], 4);
  }

  Aesa aesa(w.protos, dist);
  BkTree bk(w.protos, dist);
  for (const NearestNeighborSearcher* searcher :
       {static_cast<const NearestNeighborSearcher*>(&aesa),
        static_cast<const NearestNeighborSearcher*>(&bk)}) {
    QueryStats seq_stats;
    std::vector<std::vector<NeighborResult>> sequential(w.queries.size());
    for (std::size_t i = 0; i < w.queries.size(); ++i) {
      sequential[i] = searcher->KNearest(w.queries[i], 4, &seq_stats);
    }
    QueryStats batch_stats;
    BatchQueryEngine engine(*searcher);
    auto batched = engine.KNearest(w.queries, 4, &batch_stats);
    ASSERT_EQ(batched.size(), sequential.size());
    for (std::size_t i = 0; i < batched.size(); ++i) {
      ASSERT_EQ(batched[i].size(), sequential[i].size()) << i;
      ASSERT_EQ(batched[i].size(), oracle[i].size()) << i;
      for (std::size_t j = 0; j < batched[i].size(); ++j) {
        EXPECT_EQ(batched[i][j].index, sequential[i][j].index) << i;
        EXPECT_EQ(batched[i][j].distance, sequential[i][j].distance) << i;
        EXPECT_NEAR(batched[i][j].distance, oracle[i][j].distance, 1e-9)
            << "query " << i << " rank " << j;
        if (j > 0) {
          EXPECT_LE(batched[i][j - 1].distance, batched[i][j].distance);
        }
      }
    }
    EXPECT_TRUE(batch_stats == seq_stats);
  }
}

TEST(BatchEngineTest, AesaKNearestOneMatchesNearest) {
  Workload w = MakeWorkload(4600);
  auto dist = MakeDistance("dYB");
  Aesa aesa(w.protos, dist);
  for (std::size_t i = 0; i < w.queries.size(); ++i) {
    QueryStats sn, sk;
    const NeighborResult a = aesa.Nearest(w.queries[i], &sn);
    const auto b = aesa.KNearest(w.queries[i], 1, &sk);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(a.index, b[0].index);
    EXPECT_EQ(a.distance, b[0].distance);
    EXPECT_TRUE(sn == sk);  // k = 1 follows the identical trajectory
  }
}

// The two-stage pivot pipeline on the flat index: bit-identical to the
// sequential per-query two-stage reference, stats included (distinct
// query strings, so stage deduplication is a no-op).
TEST(BatchEngineTest, PivotStageMatchesSequentialReferenceOnFlatLaesa) {
  Workload w = MakeWorkload(4700);
  for (const auto& name : AllDistanceNames()) {
    auto dist = MakeDistance(name);
    Laesa laesa(w.protos, dist, 8);

    QueryStats seq_stats;
    std::vector<double> row(laesa.pivot_count());
    std::vector<NeighborResult> sequential(w.queries.size());
    for (std::size_t i = 0; i < w.queries.size(); ++i) {
      laesa.ComputePivotRow(w.queries[i], row.data(), &seq_stats);
      sequential[i] =
          laesa.KNearestWithPivotRow(w.queries[i], 1, row.data(), &seq_stats)
              .at(0);
    }

    for (std::size_t threads : {std::size_t{0}, std::size_t{3}}) {
      BatchQueryEngine::Options opt;
      opt.threads = threads;
      opt.pivot_stage = true;
      BatchQueryEngine engine(laesa, opt);
      QueryStats batch_stats;
      auto batched = engine.Nearest(w.queries, &batch_stats);
      ASSERT_EQ(batched.size(), sequential.size()) << name;
      for (std::size_t i = 0; i < batched.size(); ++i) {
        EXPECT_EQ(batched[i].index, sequential[i].index)
            << name << " threads=" << threads << " q=" << i;
        EXPECT_EQ(batched[i].distance, sequential[i].distance) << name;
      }
      EXPECT_TRUE(batch_stats == seq_stats) << name << " threads=" << threads;
    }
  }
}

TEST(BatchEngineTest, PivotStageKNearestMatchesSequentialReference) {
  Workload w = MakeWorkload(4800);
  auto dist = MakeDistance("dE");
  Laesa laesa(w.protos, dist, 6);
  std::vector<double> row(laesa.pivot_count());
  std::vector<std::vector<NeighborResult>> sequential(w.queries.size());
  for (std::size_t i = 0; i < w.queries.size(); ++i) {
    laesa.ComputePivotRow(w.queries[i], row.data());
    sequential[i] = laesa.KNearestWithPivotRow(w.queries[i], 5, row.data());
  }
  BatchQueryEngine::Options opt;
  opt.pivot_stage = true;
  BatchQueryEngine engine(laesa, opt);
  auto batched = engine.KNearest(w.queries, 5);
  ASSERT_EQ(batched.size(), sequential.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    ASSERT_EQ(batched[i].size(), sequential[i].size()) << i;
    for (std::size_t j = 0; j < batched[i].size(); ++j) {
      EXPECT_EQ(batched[i][j].index, sequential[i][j].index) << i;
      EXPECT_EQ(batched[i][j].distance, sequential[i][j].distance) << i;
    }
  }
}

// The pipeline's WithPivotRow sweep must agree with the lazy path on the
// *neighbour distance* for metric distances (both are exact searches; the
// trajectories — and so the stats — legitimately differ).
TEST(BatchEngineTest, PivotStageDistancesMatchLazyPathOnMetricDistance) {
  Workload w = MakeWorkload(4900);
  auto dist = MakeDistance("dE");
  Laesa laesa(w.protos, dist, 8);
  BatchQueryEngine::Options opt;
  opt.pivot_stage = true;
  BatchQueryEngine staged(laesa, opt);
  BatchQueryEngine plain(laesa);
  auto a = staged.Nearest(w.queries);
  auto b = plain.Nearest(w.queries);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].distance, b[i].distance) << i;
  }
}

// pivot_stage on a searcher without a pivot stage falls back to the plain
// per-query path (same results and stats).
TEST(BatchEngineTest, PivotStageFallsBackForNonPivotSearchers) {
  Workload w = MakeWorkload(5000);
  auto dist = MakeDistance("dE");
  ExhaustiveSearch exact(w.protos, dist);
  QueryStats plain_stats, staged_stats;
  BatchQueryEngine plain(exact);
  BatchQueryEngine::Options opt;
  opt.pivot_stage = true;
  BatchQueryEngine staged(exact, opt);
  auto a = plain.Nearest(w.queries, &plain_stats);
  auto b = staged.Nearest(w.queries, &staged_stats);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index) << i;
    EXPECT_EQ(a[i].distance, b[i].distance) << i;
  }
  EXPECT_TRUE(plain_stats == staged_stats);
}

TEST(BatchEngineTest, KnnClassifyRejectsZeroK) {
  std::vector<std::string> strings{"aa", "bb"};
  std::vector<int> labels{0, 1};
  ExhaustiveSearch exact(strings, MakeDistance("dE"));
  PrototypeStore queries(std::vector<std::string>{"ab"});
  EXPECT_THROW(KnnClassify(exact, labels, "ab", 0), std::invalid_argument);
  EXPECT_THROW(KnnClassifyBatch(exact, labels, queries, 0),
               std::invalid_argument);
}

TEST(BatchEngineTest, EmptyQuerySpan) {
  std::vector<std::string> strings{"aa", "bb"};
  ExhaustiveSearch exact(strings, MakeDistance("dE"));
  BatchQueryEngine engine(exact);
  PrototypeStore empty;
  QueryStats stats;
  EXPECT_TRUE(engine.Nearest(empty, &stats).empty());
  EXPECT_EQ(stats.distance_computations, 0u);
}

}  // namespace
}  // namespace cned
