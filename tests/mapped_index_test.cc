// Cross-index differential fuzz harness for the zero-copy serving tier:
// for randomized dictionaries over every registered distance, a mapped
// (`PrototypeStore::Map` / `ShardedPrototypeStore::Map` / `Laesa::Map` over
// either) index must answer Nearest and KNearest with bit-identical
// neighbours, distances AND QueryStats to (a) the freshly built index,
// (b) the copy-loading `LoadBinary`/`Load` path, and (c) — for an index
// over a sharded store at every shard count S in {1, 2, 4, 8} — the S = 1
// index over a flat store. The mapped serving path must also drive the
// batch engine (plain and two-stage pivot pipeline) identically and keep
// the store's labels, and re-snapshotting a mapped object must reproduce the file
// byte for byte.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datasets/perturb.h"
#include "datasets/prototype_store.h"
#include "datasets/sharded_prototype_store.h"
#include "distances/registry.h"
#include "search/batch_engine.h"
#include "search/laesa.h"
#include "tests/snapshot_test_util.h"

namespace cned {
namespace {

/// Everything one query answers: 1-NN and k-NN results with their stats.
struct Probe {
  NeighborResult nearest;
  QueryStats nearest_stats;
  std::vector<NeighborResult> knn;
  QueryStats knn_stats;
};

Probe ProbeQuery(const NearestNeighborSearcher& searcher, std::string_view q,
                 std::size_t k) {
  Probe p;
  p.nearest = searcher.Nearest(q, &p.nearest_stats);
  p.knn = searcher.KNearest(q, k, &p.knn_stats);
  return p;
}

/// Bit-identity across every field — EXPECT_EQ on the distances compares
/// the exact double values, not an approximation.
void ExpectIdentical(const Probe& a, const Probe& b, const std::string& ctx) {
  EXPECT_EQ(a.nearest.index, b.nearest.index) << ctx;
  EXPECT_EQ(a.nearest.distance, b.nearest.distance) << ctx;
  EXPECT_TRUE(a.nearest_stats == b.nearest_stats) << ctx;
  ASSERT_EQ(a.knn.size(), b.knn.size()) << ctx;
  for (std::size_t i = 0; i < a.knn.size(); ++i) {
    EXPECT_EQ(a.knn[i].index, b.knn[i].index) << ctx << " k-rank " << i;
    EXPECT_EQ(a.knn[i].distance, b.knn[i].distance) << ctx << " k-rank " << i;
  }
  EXPECT_TRUE(a.knn_stats == b.knn_stats) << ctx;
}

TEST(MappedIndexTest, FlatDifferentialFuzzAcrossAllDistances) {
  for (std::uint64_t trial = 0; trial < 3; ++trial) {
    const auto words = Words(36 + 17 * trial, 9000 + trial);
    PrototypeStore store(words);
    Rng rng(9100 + trial);
    const auto queries = MakeQueries(words, 6, 2, Alphabet::Latin(), rng);

    TempFile store_file("fuzz_store_" + std::to_string(trial));
    store.SaveBinary(store_file.path());
    PrototypeStore copy_store = PrototypeStore::LoadBinary(store_file.path());
    PrototypeStore mapped_store = PrototypeStore::Map(store_file.path());
    EXPECT_FALSE(copy_store.mapped());
    ASSERT_TRUE(mapped_store.mapped());

    for (const auto& name : AllDistanceNames()) {
      auto dist = MakeDistance(name);
      Laesa built(store, dist, 5);
      TempFile index_file("fuzz_laesa_" + std::to_string(trial) + "_" + name);
      built.Save(index_file.path());
      Laesa copied = Laesa::Load(index_file.path(), copy_store, dist);
      Laesa mapped = Laesa::Map(index_file.path(), mapped_store, dist);
      ASSERT_TRUE(mapped.mapped());
      EXPECT_EQ(mapped.pivots(), built.pivots()) << name;

      for (const auto& q : queries) {
        const std::string ctx =
            "trial " + std::to_string(trial) + " " + name + " q=" + q;
        const Probe b = ProbeQuery(built, q, 3);
        ExpectIdentical(b, ProbeQuery(copied, q, 3), ctx + " [copy]");
        ExpectIdentical(b, ProbeQuery(mapped, q, 3), ctx + " [map]");
      }
    }
  }
}

TEST(MappedIndexTest, ShardedDifferentialFuzzAcrossDistancesAndShardCounts) {
  const auto words = Words(52, 9500);
  std::vector<int> labels(words.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i % 3);
  }
  Rng rng(9501);
  const auto queries = MakeQueries(words, 5, 2, Alphabet::Latin(), rng);

  for (const auto& name : AllDistanceNames()) {
    auto dist = MakeDistance(name);
    // Flat single-store reference: the sharded sweep is contractually
    // bit-identical to it, and the mapped sweep must inherit that.
    PrototypeStore flat_store(words);
    Laesa flat(flat_store, dist, 5);

    for (std::size_t shards : {1u, 2u, 4u, 8u}) {
      ShardedPrototypeStore store(words, shards, labels);
      Laesa built(store, dist, 5);
      TempFile store_file("fuzz_sstore_" + name + std::to_string(shards));
      TempFile index_file("fuzz_slaesa_" + name + std::to_string(shards));
      store.SaveBinary(store_file.path());
      built.Save(index_file.path());

      ShardedPrototypeStore copy_store =
          ShardedPrototypeStore::LoadBinary(store_file.path());
      Laesa copied = Laesa::Load(index_file.path(), copy_store, dist);
      ShardedPrototypeStore mapped_store =
          ShardedPrototypeStore::Map(store_file.path());
      ASSERT_TRUE(mapped_store.mapped());
      EXPECT_EQ(mapped_store.labels(), labels);
      Laesa mapped = Laesa::Map(index_file.path(), mapped_store, dist);
      ASSERT_TRUE(mapped.mapped());
      EXPECT_EQ(mapped.pivots(), built.pivots()) << name;

      for (const auto& q : queries) {
        const std::string ctx =
            name + " S=" + std::to_string(shards) + " q=" + q;
        const Probe b = ProbeQuery(built, q, 3);
        ExpectIdentical(b, ProbeQuery(flat, q, 3), ctx + " [flat]");
        ExpectIdentical(b, ProbeQuery(copied, q, 3), ctx + " [copy]");
        ExpectIdentical(b, ProbeQuery(mapped, q, 3), ctx + " [map]");
      }
    }
  }
}

// The mapped serving path must drive the batch engine — plain fan-out and
// the two-stage pivot pipeline — exactly like the built index, and carry the
// store's labels.
TEST(MappedIndexTest, MappedServingBatchesIdentically) {
  const auto words = Words(60, 9600);
  std::vector<int> labels(words.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i % 4);
  }
  ShardedPrototypeStore store(words, 4, labels);
  auto dist = MakeDistance("dYB");
  Laesa built(store, dist, 6);
  TempFile store_file("serve_store");
  TempFile index_file("serve_index");
  store.SaveBinary(store_file.path());
  built.Save(index_file.path());
  ShardedPrototypeStore mapped_store =
      ShardedPrototypeStore::Map(store_file.path());
  Laesa mapped = Laesa::Map(index_file.path(), mapped_store, dist);

  Rng rng(9601);
  auto query_words = MakeQueries(words, 9, 2, Alphabet::Latin(), rng);
  query_words.push_back(query_words.front());  // a duplicate for the dedup path
  PrototypeStore queries(query_words);

  for (const bool pivot_stage : {false, true}) {
    BatchQueryEngine::Options opt;
    opt.pivot_stage = pivot_stage;
    BatchQueryEngine engine_built(built, opt);
    BatchQueryEngine engine_mapped(mapped, opt);

    QueryStats sb, sm;
    std::vector<QueryStats> shard_b, shard_m;
    const auto rb = engine_built.Nearest(queries, &sb, &shard_b);
    const auto rm = engine_mapped.Nearest(queries, &sm, &shard_m);
    ASSERT_EQ(rb.size(), rm.size());
    for (std::size_t i = 0; i < rb.size(); ++i) {
      EXPECT_EQ(rb[i].index, rm[i].index) << i;
      EXPECT_EQ(rb[i].distance, rm[i].distance) << i;
    }
    EXPECT_TRUE(sb == sm);
    ASSERT_EQ(shard_b.size(), shard_m.size());
    for (std::size_t s = 0; s < shard_b.size(); ++s) {
      EXPECT_TRUE(shard_b[s] == shard_m[s]) << "shard " << s;
    }
  }
  EXPECT_EQ(mapped_store.labels(), store.labels());
}

TEST(MappedIndexTest, MappedStoreIsReadOnlyAndResavesByteIdentically) {
  const auto words = Words(30, 9700);
  PrototypeStore store(words);
  TempFile store_file("ro_store");
  store.SaveBinary(store_file.path());
  PrototypeStore mapped = PrototypeStore::Map(store_file.path());
  EXPECT_THROW(mapped.Add("xyz"), std::logic_error);

  // Re-snapshotting through the views must reproduce the file bit for bit
  // (the serving tier can re-publish a snapshot it only ever mapped).
  TempFile resaved("ro_store_resave");
  mapped.SaveBinary(resaved.path());
  EXPECT_EQ(ReadAll(resaved.path()), ReadAll(store_file.path()));

  Laesa index(store, MakeDistance("dE"), 4);
  TempFile index_file("ro_index");
  index.Save(index_file.path());
  Laesa mapped_index =
      Laesa::Map(index_file.path(), mapped, MakeDistance("dE"));
  TempFile index_resaved("ro_index_resave");
  mapped_index.Save(index_resaved.path());
  EXPECT_EQ(ReadAll(index_resaved.path()), ReadAll(index_file.path()));
}

// Copies of a mapped store share the mapping: views stay valid after the
// original is destroyed (the ASan CI job turns a lifetime bug here into a
// hard failure).
TEST(MappedIndexTest, MappedStoreCopiesShareTheMapping) {
  const auto words = Words(25, 9800);
  PrototypeStore store(words);
  TempFile store_file("share_store");
  store.SaveBinary(store_file.path());

  PrototypeStore copy;
  {
    PrototypeStore mapped = PrototypeStore::Map(store_file.path());
    copy = mapped;
  }  // original mapped store destroyed; `copy` co-owns the mapping
  ASSERT_TRUE(copy.mapped());
  ASSERT_EQ(copy.size(), words.size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    EXPECT_EQ(copy.view(i), words[i]) << i;
  }
}

}  // namespace
}  // namespace cned
