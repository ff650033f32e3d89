// Cross-index differential fuzz harness for the zero-copy serving tier, on
// the path matrix (tests/path_matrix.h): for randomized dictionaries over
// every registered distance, a mapped (`PrototypeStore::Map` /
// `ShardedPrototypeStore::Map` / `Laesa::Map` over either) and a
// copy-loaded (`LoadBinary`/`Load`) index must answer with bit-identical
// neighbours, distances AND QueryStats to the freshly built index over a
// flat store, for a sharded store at every shard count S in {1, 2, 4, 8}
// too. The mapped serving path must also drive the batch engine (plain and
// two-stage pivot pipeline) identically, per-segment stats included, and
// keep the store's labels, and re-snapshotting a mapped object must
// reproduce the file byte for byte.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datasets/perturb.h"
#include "datasets/prototype_store.h"
#include "distances/registry.h"
#include "search/laesa.h"
#include "tests/path_matrix.h"
#include "tests/snapshot_test_util.h"

namespace cned {
namespace {

std::vector<int> Labels(std::size_t n, int classes) {
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) labels[i] = static_cast<int>(i) % classes;
  return labels;
}

TEST(MappedIndexTest, FlatDifferentialFuzzAcrossAllDistances) {
  for (std::uint64_t trial = 0; trial < 3; ++trial) {
    PathMatrix m;
    m.protos = Words(36 + 17 * trial, 9000 + trial);
    Rng rng(9100 + trial);
    m.queries = MakeQueries(m.protos, 6, 2, Alphabet::Latin(), rng);
    m.distances = AllDistanceNames();
    m.pivots = 5;
    m.load = m.map = true;
    m.ks = {1, 3};
    RunPathMatrix(m);
  }
}

TEST(MappedIndexTest, ShardedDifferentialFuzzAcrossDistancesAndShardCounts) {
  PathMatrix m;
  m.protos = Words(52, 9500);
  m.labels = Labels(m.protos.size(), 3);
  Rng rng(9501);
  m.queries = MakeQueries(m.protos, 5, 2, Alphabet::Latin(), rng);
  m.distances = AllDistanceNames();
  m.pivots = 5;
  m.shards = {1, 2, 4, 8};
  m.load = m.map = true;
  m.ks = {1, 3};
  RunPathMatrix(m);
}

// The mapped serving path must drive the batch engine — plain fan-out and
// the two-stage pivot pipeline — exactly like the built index, and carry the
// store's labels.
TEST(MappedIndexTest, MappedServingBatchesIdentically) {
  PathMatrix m;
  m.protos = Words(60, 9600);
  m.labels = Labels(m.protos.size(), 4);
  Rng rng(9601);
  m.queries = MakeQueries(m.protos, 9, 2, Alphabet::Latin(), rng);
  m.queries.push_back(m.queries.front());  // a duplicate for the dedup path
  m.distances = {"dYB"};
  m.shards = {4};
  m.map = true;
  m.entries = {Entry::kBatchLazy, Entry::kBatch};
  m.segments = true;
  RunPathMatrix(m);
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
