// Tests for the mutable tier's two building blocks (search/mutable_segment.h):
// `Tombstones` (lazy bitmap, dead count, copy-on-write) and `MutableSegment`
// (ascending-id append with re-sent-id dedup, remove, locate, the bounded
// delta scan, the live walk and the tail copy). `MutableLaesa` keeps its base
// and delta in a segment, and a shard worker its delta; the worker's insert
// and remove dedup is this type's.

#include "search/mutable_segment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "distances/registry.h"
#include "strings/alphabet.h"
#include "strings/string_gen.h"

namespace cned {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<std::string> Words(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  Alphabet ab("abcd");
  std::vector<std::string> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(StringGen::UniformLength(rng, ab, 0, 8));
  }
  return out;
}

/// A segment holding `words` under ids first, first + step, ...
MutableSegment Filled(const std::vector<std::string>& words,
                      std::uint64_t first, std::uint64_t step) {
  MutableSegment seg;
  for (std::size_t i = 0; i < words.size(); ++i) {
    EXPECT_TRUE(seg.Insert(first + i * step, words[i]));
  }
  return seg;
}

TEST(TombstonesTest, MaskIsNullUntilTheFirstKill) {
  Tombstones t(130);
  EXPECT_EQ(t.mask(), nullptr);
  EXPECT_EQ(t.dead(), 0u);
  EXPECT_FALSE(t.IsDead(0));
  EXPECT_FALSE(t.IsDead(129));
  t.Grow(200);
  EXPECT_EQ(t.mask(), nullptr);

  EXPECT_TRUE(t.Kill(129));
  ASSERT_NE(t.mask(), nullptr);
  EXPECT_EQ(t.dead(), 1u);
  EXPECT_TRUE(t.IsDead(129));
  EXPECT_FALSE(t.IsDead(128));
  EXPECT_EQ(t.mask()[129 / 64], std::uint64_t{1} << (129 % 64));
}

TEST(TombstonesTest, KillOfADeadSlotReturnsFalse) {
  Tombstones t(10);
  EXPECT_TRUE(t.Kill(3));
  EXPECT_FALSE(t.Kill(3));
  EXPECT_EQ(t.dead(), 1u);
  EXPECT_TRUE(t.Kill(0));
  EXPECT_TRUE(t.Kill(9));
  EXPECT_EQ(t.dead(), 3u);
}

TEST(TombstonesTest, GrowKeepsKillsAndAddsLiveSlots) {
  Tombstones t(64);
  ASSERT_TRUE(t.Kill(63));
  t.Grow(65);
  EXPECT_TRUE(t.IsDead(63));
  EXPECT_FALSE(t.IsDead(64));
  EXPECT_TRUE(t.Kill(64));
  EXPECT_EQ(t.dead(), 2u);
}

TEST(TombstonesTest, AKillOrGrowNeverReachesAnEarlierCopy) {
  Tombstones t(100);
  ASSERT_TRUE(t.Kill(5));
  const Tombstones before = t;
  ASSERT_TRUE(t.Kill(6));
  t.Grow(300);
  ASSERT_TRUE(t.Kill(250));
  EXPECT_EQ(before.dead(), 1u);
  EXPECT_TRUE(before.IsDead(5));
  EXPECT_FALSE(before.IsDead(6));
  EXPECT_TRUE(t.IsDead(5));
  EXPECT_TRUE(t.IsDead(6));
  EXPECT_EQ(t.dead(), 3u);
}

TEST(MutableSegmentTest, ReSentIdsAtOrBelowTheTailAreIgnored) {
  MutableSegment seg;
  EXPECT_TRUE(seg.Insert(10, "abc"));
  EXPECT_TRUE(seg.Insert(12, "abd"));
  EXPECT_FALSE(seg.Insert(12, "zzz"));  // the tail itself
  EXPECT_FALSE(seg.Insert(10, "zzz"));  // below it
  EXPECT_FALSE(seg.Insert(11, "zzz"));  // below it, never inserted
  EXPECT_EQ(seg.count(), 2u);
  EXPECT_EQ(seg.view(0), "abc");
  EXPECT_EQ(seg.view(1), "abd");
  EXPECT_EQ(seg.Locate(11), MutableSegment::kNone);
  EXPECT_TRUE(seg.Insert(13, "x"));
  EXPECT_EQ(seg.count(), 3u);
}

TEST(MutableSegmentTest, RemoveOfAnUnknownOrDeadIdChangesNothing) {
  MutableSegment seg = Filled(Words(20, 1), 100, 2);  // ids 100, 102, ..., 138
  EXPECT_EQ(seg.mask(), nullptr);
  for (const std::uint64_t unknown : {0u, 99u, 101u, 139u, 140u, 1000u}) {
    EXPECT_FALSE(seg.Remove(unknown)) << unknown;
  }
  EXPECT_EQ(seg.dead(), 0u);
  EXPECT_EQ(seg.mask(), nullptr);

  EXPECT_TRUE(seg.Remove(104));
  ASSERT_NE(seg.mask(), nullptr);
  EXPECT_EQ(seg.dead(), 1u);
  EXPECT_FALSE(seg.Remove(104));
  EXPECT_FALSE(seg.Remove(105));
  EXPECT_EQ(seg.dead(), 1u);
  EXPECT_EQ(seg.live(), 19u);
  EXPECT_TRUE(seg.IsDead(2));
}

TEST(MutableSegmentTest, LocateFindsTheFirstAndLastSlotAndSkipsTheDead) {
  const auto words = Words(9, 2);
  MutableSegment seg = Filled(words, 7, 3);  // ids 7, 10, ..., 31
  EXPECT_EQ(seg.Locate(7), 0u);
  EXPECT_EQ(seg.Locate(31), 8u);
  EXPECT_EQ(seg.Locate(19), 4u);
  EXPECT_EQ(seg.view(seg.Locate(31)), words[8]);
  EXPECT_EQ(seg.Locate(6), MutableSegment::kNone);
  EXPECT_EQ(seg.Locate(32), MutableSegment::kNone);
  ASSERT_TRUE(seg.Remove(7));
  ASSERT_TRUE(seg.Remove(31));
  EXPECT_EQ(seg.Locate(7), MutableSegment::kNone);
  EXPECT_EQ(seg.Locate(31), MutableSegment::kNone);
  EXPECT_EQ(seg.Locate(10), 1u);
}

TEST(MutableSegmentTest, AnAdoptedStoreKeepsItsIds) {
  const auto words = Words(3, 3);
  const MutableSegment seg(PrototypeStore(words), {4, 5, 9});
  EXPECT_EQ(seg.count(), 3u);
  EXPECT_EQ(seg.Locate(9), 2u);
  EXPECT_EQ(seg.mask(), nullptr);
}

TEST(MutableSegmentTest, ScanEqualsABruteForceScanOverTheLiveSlots) {
  const auto words = Words(150, 4);
  const auto queries = Words(12, 5);
  Rng rng(6);
  MutableSegment seg = Filled(words, 1000, 1);
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (rng.Chance(0.5)) {
      ASSERT_TRUE(seg.Remove(1000 + i));
    }
  }
  ASSERT_GT(seg.dead(), 0u);
  for (const char* name : {"dE", "dC"}) {
    const auto dist = MakeDistance(name);
    for (const std::string& q : queries) {
      for (const std::size_t k : {1u, 3u, 10u, 200u}) {
        for (const double cap0 : {kInf, 0.5, 2.0}) {
          std::vector<NeighborResult> want;
          seg.ForEachLive([&](std::size_t j) {
            const double d = dist->Distance(q, seg.view(j));
            if (d < cap0) want.push_back({1000 + j, d});
          });
          std::sort(want.begin(), want.end(), NeighborLess);
          if (want.size() > k) want.resize(k);

          std::vector<NeighborResult> got;
          QueryStats stats;
          seg.Scan(*dist, q, cap0, k, &got, &stats);
          ASSERT_EQ(got.size(), want.size())
              << name << " q=" << q << " k=" << k << " cap0=" << cap0;
          for (std::size_t r = 0; r < got.size(); ++r) {
            EXPECT_EQ(got[r].index, want[r].index) << name << " rank " << r;
            EXPECT_EQ(got[r].distance, want[r].distance) << name;
          }
          // Every live slot is evaluated once, and no dead one.
          EXPECT_EQ(stats.distance_computations, seg.live());
        }
      }
    }
  }
}

TEST(MutableSegmentTest, TailCopiesStringsIdsAndDeaths) {
  const auto words = Words(70, 7);
  MutableSegment seg = Filled(words, 0, 1);
  ASSERT_TRUE(seg.Remove(2));
  ASSERT_TRUE(seg.Remove(65));
  const MutableSegment tail = seg.Tail(60);
  ASSERT_EQ(tail.count(), 10u);
  EXPECT_EQ(tail.dead(), 1u);
  EXPECT_TRUE(tail.IsDead(5));
  for (std::size_t j = 0; j < tail.count(); ++j) {
    EXPECT_EQ(tail.id(j), 60 + j);
    EXPECT_EQ(tail.view(j), words[60 + j]);
  }
  EXPECT_EQ(seg.Tail(70).count(), 0u);
  EXPECT_EQ(seg.Tail(70).mask(), nullptr);
}

TEST(MutableSegmentTest, MutationsNeverReachAnEarlierCopy) {
  const auto words = Words(40, 8);
  MutableSegment seg = Filled(words, 0, 1);
  ASSERT_TRUE(seg.Remove(3));
  const MutableSegment frozen = seg;
  ASSERT_TRUE(seg.Insert(40, "dcba"));
  ASSERT_TRUE(seg.Remove(4));
  ASSERT_TRUE(seg.Remove(40));
  EXPECT_EQ(frozen.count(), 40u);
  EXPECT_EQ(frozen.dead(), 1u);
  EXPECT_NE(frozen.Locate(4), MutableSegment::kNone);
  EXPECT_EQ(seg.count(), 41u);
  EXPECT_EQ(seg.dead(), 3u);
  EXPECT_EQ(seg.Locate(4), MutableSegment::kNone);
}

// The copy-on-write contract under threads (the TSan job runs this file):
// a reader scanning a copy while the owner appends and kills in place.
TEST(MutableSegmentTest, AReaderOfACopyRacesNoOwnerMutation) {
  const auto words = Words(200, 9);
  const auto dist = MakeDistance("dE");
  MutableSegment seg = Filled(words, 0, 1);
  const MutableSegment frozen = seg;
  std::vector<NeighborResult> want;
  frozen.Scan(*dist, "abca", kInf, 5, &want, nullptr);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> bad{0};
  std::thread reader([&] {
    do {
      std::vector<NeighborResult> got;
      frozen.Scan(*dist, "abca", kInf, 5, &got, nullptr);
      if (got.size() != want.size() ||
          !std::equal(got.begin(), got.end(), want.begin(),
                      [](const NeighborResult& a, const NeighborResult& b) {
                        return a.index == b.index && a.distance == b.distance;
                      })) {
        bad.fetch_add(1);
      }
    } while (!stop.load());
  });
  for (std::uint64_t i = 0; i < 300; ++i) {
    seg.Insert(200 + i, words[i % words.size()]);
    seg.Remove(i);
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(seg.count(), 500u);
  EXPECT_EQ(seg.dead(), 300u);
  EXPECT_EQ(frozen.count(), 200u);
  EXPECT_EQ(frozen.dead(), 0u);
}

}  // namespace
}  // namespace cned
