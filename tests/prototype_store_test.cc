// Tests for the flat PrototypeStore arena: zero-copy views must reproduce
// the source strings exactly, the packed length array must stay aligned,
// and one store must be safely shareable across ParallelFor workers and
// multiple search indexes at once.

#include "datasets/prototype_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "datasets/dictionary_gen.h"
#include "datasets/perturb.h"
#include "distances/registry.h"
#include "search/exhaustive.h"
#include "search/laesa.h"

namespace cned {
namespace {

TEST(PrototypeStoreTest, RoundTripsStrings) {
  std::vector<std::string> strings{"", "a", "abc", "", "hello world",
                                   std::string(300, 'x')};
  PrototypeStore store(strings);
  ASSERT_EQ(store.size(), strings.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < strings.size(); ++i) {
    EXPECT_EQ(store.view(i), strings[i]) << i;
    EXPECT_EQ(store[i], strings[i]) << i;
    EXPECT_EQ(store.length(i), strings[i].size()) << i;
    EXPECT_EQ(store.lengths_data()[i], strings[i].size()) << i;
    total += strings[i].size();
  }
  EXPECT_EQ(store.arena_bytes(), total);
  EXPECT_EQ(store.ToStrings(), strings);
}

TEST(PrototypeStoreTest, IncrementalAdd) {
  PrototypeStore store;
  EXPECT_TRUE(store.empty());
  store.Reserve(3, 10);
  store.Add("one");
  store.Add("");
  store.Add("three");
  ASSERT_EQ(store.size(), 3u);
  EXPECT_EQ(store[0], "one");
  EXPECT_EQ(store[1], "");
  EXPECT_EQ(store[2], "three");
}

TEST(PrototypeStoreTest, ReserveRejectsOverCapArena) {
  // The arena stores 32-bit offsets, so a total past 2^32-1 bytes can
  // never be served. Add has always thrown at the cap; Reserve used to
  // happily allocate gigabytes for a store that could never legally fill
  // them. Both gates must agree — and the string-vector ctor's pre-sum
  // (now overflow-safe) funnels through the same check, so an over-cap
  // input fails up front instead of deep inside Add.
  const std::size_t cap = std::numeric_limits<std::uint32_t>::max();
  PrototypeStore store;
  EXPECT_THROW(store.Reserve(1, cap + std::size_t{1}), std::length_error);
  EXPECT_THROW(store.Reserve(4, cap * 2), std::length_error);
  // The happy path is untouched: a small reserve still works and the
  // store stays usable after a rejected one.
  EXPECT_NO_THROW(store.Reserve(1, 16));
  store.Add("still works");
  EXPECT_EQ(store[0], "still works");
}

TEST(PrototypeStoreTest, ArenaIsContiguousAndPacked) {
  PrototypeStore store(std::vector<std::string>{"abc", "de", "f"});
  EXPECT_EQ(std::string(store.arena_data(), store.arena_bytes()), "abcdef");
  // Views of consecutive strings are adjacent in the arena (zero padding).
  EXPECT_EQ(store.view(0).data() + store.view(0).size(),
            store.view(1).data());
}

// A ref borrows a named store or packs strings; a temporary store, which
// would die before the index holding the ref, does not compile.
static_assert(!std::is_constructible_v<PrototypeStoreRef, PrototypeStore>);
static_assert(!std::is_constructible_v<PrototypeStoreRef, PrototypeStore&&>);
static_assert(std::is_constructible_v<PrototypeStoreRef, PrototypeStore&>);
static_assert(
    std::is_constructible_v<PrototypeStoreRef, const PrototypeStore&>);
static_assert(
    std::is_constructible_v<PrototypeStoreRef, std::vector<std::string>>);
static_assert(std::is_constructible_v<PrototypeStoreRef,
                                      const std::vector<std::string>&>);

TEST(PrototypeStoreRefTest, BorrowsAndOwns) {
  std::vector<std::string> strings{"alpha", "beta"};
  PrototypeStore store(strings);
  PrototypeStoreRef borrowed(store);
  EXPECT_EQ(&borrowed.get(), &store);  // zero-copy borrow

  PrototypeStoreRef owned(strings);  // packs a private copy
  EXPECT_NE(&owned.get(), &store);
  EXPECT_EQ(owned->size(), 2u);
  EXPECT_EQ((*owned)[1], "beta");

  // Copies of a ref share the same underlying store.
  PrototypeStoreRef copy = owned;
  EXPECT_EQ(&copy.get(), &owned.get());
}

TEST(PrototypeStoreStressTest, ParallelReadsAreConsistent) {
  // Many workers hammering one shared store must read exactly the same
  // bytes the sequential pass does — views are immutable after build.
  DictionaryOptions opt;
  opt.word_count = 400;
  opt.seed = 9001;
  auto strings = GenerateDictionary(opt).strings;
  PrototypeStore store(strings);

  auto dist = MakeDistance("dE");
  const std::size_t pairs = 2000;
  std::vector<double> expected(pairs);
  Rng rng(9002);
  std::vector<std::pair<std::size_t, std::size_t>> pair_idx(pairs);
  for (auto& [a, b] : pair_idx) {
    a = rng.Index(store.size());
    b = rng.Index(store.size());
  }
  for (std::size_t i = 0; i < pairs; ++i) {
    expected[i] =
        dist->Distance(store[pair_idx[i].first], store[pair_idx[i].second]);
  }

  std::atomic<std::size_t> mismatches{0};
  ParallelFor(pairs, [&](std::size_t i) {
    double d =
        dist->Distance(store[pair_idx[i].first], store[pair_idx[i].second]);
    if (d != expected[i]) mismatches.fetch_add(1);
    // Also verify the raw view against the owning copy.
    if (store[pair_idx[i].first] != strings[pair_idx[i].first]) {
      mismatches.fetch_add(1);
    }
  });
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(PrototypeStoreStressTest, OneStoreSharedByManyIndexes) {
  // The production shape: a single arena feeding several indexes, queried
  // concurrently from ParallelFor workers (thread-local scratch only).
  DictionaryOptions opt;
  opt.word_count = 200;
  opt.seed = 9003;
  auto strings = GenerateDictionary(opt).strings;
  PrototypeStore store(strings);

  auto dist = MakeDistance("dE");
  Laesa laesa(store, dist, 12);
  ExhaustiveSearch exact(store, dist);

  Rng rng(9004);
  auto queries = MakeQueries(strings, 60, 2, Alphabet::Latin(), rng);
  std::vector<NeighborResult> sequential(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    sequential[i] = laesa.Nearest(queries[i]);
  }

  std::atomic<std::size_t> mismatches{0};
  ParallelFor(queries.size(), [&](std::size_t i) {
    auto l = laesa.Nearest(queries[i]);
    auto e = exact.Nearest(queries[i]);
    if (l.index != sequential[i].index ||
        l.distance != sequential[i].distance) {
      mismatches.fetch_add(1);
    }
    if (l.distance != e.distance) mismatches.fetch_add(1);
  });
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace cned
