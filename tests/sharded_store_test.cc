// ShardedPrototypeStore: deterministic contiguous partitioning that keeps
// the global index space of the flat store intact, per-shard label slices,
// and the global view/length accessors the sharded searcher builds on.

#include "datasets/sharded_prototype_store.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "datasets/dictionary_gen.h"

namespace cned {
namespace {

std::vector<std::string> Words(std::size_t n, std::uint64_t seed) {
  DictionaryOptions opt;
  opt.word_count = n;
  opt.seed = seed;
  return GenerateDictionary(opt).strings;
}

TEST(ShardedStoreTest, PartitionCoversGlobalOrderExactly) {
  const auto words = Words(103, 9001);
  for (std::size_t shards : {1u, 2u, 4u, 7u, 8u}) {
    ShardedPrototypeStore store(words, shards);
    ASSERT_EQ(store.shard_count(), shards);
    ASSERT_EQ(store.size(), words.size());
    std::size_t total = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      EXPECT_EQ(store.shard_base(s), total) << s;
      total += store.shard(s).size();
    }
    EXPECT_EQ(total, words.size());
    for (std::size_t i = 0; i < words.size(); ++i) {
      EXPECT_EQ(store.view(i), words[i]) << "shards=" << shards << " i=" << i;
      EXPECT_EQ(store.length(i), words[i].size());
      const std::size_t s = store.ShardOf(i);
      ASSERT_LT(s, shards);
      EXPECT_GE(i, store.shard_base(s));
      EXPECT_LT(i, store.shard_base(s) + store.shard(s).size());
    }
  }
}

TEST(ShardedStoreTest, BalancedPartition) {
  ShardedPrototypeStore store(Words(100, 9002), 8);
  for (std::size_t s = 0; s < 8; ++s) {
    EXPECT_GE(store.shard(s).size(), 12u);
    EXPECT_LE(store.shard(s).size(), 13u);
  }
}

TEST(ShardedStoreTest, MoreShardsThanStringsLeavesEmptyShards) {
  const std::vector<std::string> words{"aa", "bb", "cc"};
  ShardedPrototypeStore store(words, 5);
  EXPECT_EQ(store.size(), 3u);
  std::size_t non_empty = 0;
  for (std::size_t s = 0; s < 5; ++s) {
    non_empty += store.shard(s).empty() ? 0 : 1;
  }
  EXPECT_EQ(non_empty, 3u);
  for (std::size_t i = 0; i < words.size(); ++i) {
    EXPECT_EQ(store.view(i), words[i]);
  }
}

TEST(ShardedStoreTest, LabelsSliceFollowsShards) {
  const auto words = Words(50, 9003);
  std::vector<int> labels(words.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i % 7);
  }
  ShardedPrototypeStore store(words, 4, labels);
  ASSERT_TRUE(store.has_labels());
  EXPECT_EQ(store.labels(), labels);
  for (std::size_t s = 0; s < 4; ++s) {
    const int* slice = store.shard_labels(s);
    ASSERT_NE(slice, nullptr);
    for (std::size_t j = 0; j < store.shard(s).size(); ++j) {
      EXPECT_EQ(slice[j], labels[store.shard_base(s) + j]);
    }
  }
}

TEST(ShardedStoreTest, ShardViewsRoundTrip) {
  const auto words = Words(37, 9004);
  ShardedPrototypeStore store(words, 3);
  std::vector<std::string> back;
  for (std::size_t s = 0; s < store.shard_count(); ++s) {
    for (std::size_t j = 0; j < store.shard(s).size(); ++j) {
      back.emplace_back(store.shard(s).view(j));
    }
  }
  ASSERT_EQ(back.size(), words.size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    EXPECT_EQ(back[i], words[i]);
  }
}

TEST(ShardedStoreTest, FromFlatStoreMatchesFromStrings) {
  const auto words = Words(41, 9005);
  PrototypeStore flat(words);
  ShardedPrototypeStore a(words, 4);
  ShardedPrototypeStore b(flat, 4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.view(i), b.view(i));
  }
}

TEST(ShardedStoreTest, RejectsBadArguments) {
  const auto words = Words(10, 9006);
  EXPECT_THROW(ShardedPrototypeStore(words, 0), std::invalid_argument);
  EXPECT_THROW(ShardedPrototypeStore(words, 2, std::vector<int>{1, 2}),
               std::invalid_argument);
}

}  // namespace
}  // namespace cned
