// Decision-level contracts of the distributed sweep's state machine, driven
// directly with hand-built worker replies (no processes): the strict '<'
// shard-order merge, pivots-first selection, shard loss and deadline
// bookkeeping, result finalisation, row seeding, and the rejection of
// malformed replies whose candidate ids would index outside the shape.

#include "serve/sweep_machine.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "serve/wire.h"

namespace cned {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Three shards of four ids each ([0,4), [4,8), [8,12)), one pivot per
/// shard; pivot ordinals run against id order so tie admission shows.
SweepShape ThreeShards() {
  SweepShape shape;
  shape.bases = {0, 4, 8, 12};
  shape.pivots = {9, 5, 1};
  shape.pivot_rank.assign(12, -1);
  for (std::size_t p = 0; p < shape.pivots.size(); ++p) {
    shape.pivot_rank[shape.pivots[p]] = static_cast<std::int32_t>(p);
  }
  return shape;
}

SweepWorld CleanWorld() {
  SweepWorld world;
  world.shard_dead.assign(3, 0);
  world.delta_live.assign(3, 0);
  return world;
}

/// Base id `id` removed (a world in which the lazy begin is masked).
SweepWorld WorldWithTombstone(std::size_t id) {
  SweepWorld world = CleanWorld();
  world.base_tombs.assign(TombstoneWords(12), 0);
  SetTombstone(world.base_tombs.data(), id);
  ++world.shard_dead[id / 4];
  ++world.base_dead_total;
  return world;
}

std::vector<char> Compact(std::size_t live, std::size_t next, double next_key,
                          std::size_t next_pivot = kSweepNone,
                          double next_pivot_key = kInf,
                          std::size_t live_pivots = 0) {
  SweepCompactResult pass;
  pass.live = live;
  pass.next = next;
  pass.next_key = next_key;
  pass.next_pivot = next_pivot;
  pass.next_pivot_key = next_pivot_key;
  PayloadWriter w;
  EncodeCompact(w, pass, live_pivots);
  return w.buf;
}

std::vector<char> Legacy(std::size_t live, std::size_t live_pivots) {
  PayloadWriter w;
  w.U64(live);
  w.U64(live_pivots);
  return w.buf;
}

const double kRow[3] = {5.0, 5.0, 5.0};

TEST(SweepMachineTest, EqualKeysMergeInShardOrder) {
  const SweepShape shape = ThreeShards();
  const SweepWorld world = CleanWorld();
  SweepMachine m(shape, world, "q", 1, kRow);
  ASSERT_TRUE(m.AbsorbBegin(0, Compact(2, 2, 1.0)));
  ASSERT_TRUE(m.AbsorbBegin(1, Compact(2, 6, 1.5)));
  ASSERT_TRUE(m.AbsorbBegin(2, Compact(2, 10, 1.0)));
  EXPECT_EQ(m.Next(), 2u);
  EXPECT_EQ(m.cand_shard(), 0u);
  EXPECT_EQ(m.router_pivot(), -1);  // row sweeps evaluate on the workers
  EXPECT_EQ(m.cap(), 5.0);

  m.AbsorbEval(7.0);  // >= cap: abandoned, no incumbent change
  ASSERT_TRUE(m.AbsorbStep(0, Compact(0, kSweepNone, kInf)));
  ASSERT_TRUE(m.AbsorbStep(1, Compact(1, 6, 1.0)));
  ASSERT_TRUE(m.AbsorbStep(2, Compact(1, 10, 1.0)));
  EXPECT_EQ(m.Next(), 6u);
  EXPECT_EQ(m.cand_shard(), 1u);

  ServeResult res;
  m.Finish(&res);
  EXPECT_EQ(res.stats.distance_computations, 4u);  // 3 row evals + 1 visit
  EXPECT_EQ(res.stats.pivot_computations, 3u);
  EXPECT_EQ(res.stats.bounded_abandons, 1u);
}

TEST(SweepMachineTest, PivotsAreChosenFirstWhileAnySurvive) {
  const SweepShape shape = ThreeShards();
  const SweepWorld world = WorldWithTombstone(0);
  SweepMachine m(shape, world, "q", 1, /*row=*/nullptr);
  EXPECT_EQ(m.begin_type(), FrameType::kBeginLazy);
  ASSERT_TRUE(m.AbsorbBegin(0, Compact(3, 2, 0.5, 1, 2.0, 1)));
  ASSERT_TRUE(m.AbsorbBegin(1, Compact(4, 6, 0.1, 5, 1.0, 1)));
  ASSERT_TRUE(m.AbsorbBegin(2, Compact(4, 10, 0.2, 9, 3.0, 1)));
  EXPECT_EQ(m.live_pivots(), 3u);
  EXPECT_EQ(m.Next(), 5u);
  EXPECT_EQ(m.router_pivot(), 1);  // a lazy pivot visit runs router-side
  EXPECT_EQ(m.cap(), kInf);
  m.AbsorbEval(2.0);

  // The step carries the visit and the tightened radius.
  const std::vector<char> step = m.StepPayload();
  PayloadReader r(step);
  EXPECT_EQ(r.U32(), 5u);
  EXPECT_EQ(r.I32(), 1);
  EXPECT_EQ(r.F64(), 2.0);
  EXPECT_EQ(r.F64(), 1.0);
  EXPECT_EQ(r.F64(), 2.0);
  EXPECT_TRUE(r.Done());

  ASSERT_TRUE(m.AbsorbStep(0, Compact(2, 2, 0.5)));
  ASSERT_TRUE(m.AbsorbStep(1, Compact(2, 6, 0.1)));
  ASSERT_TRUE(m.AbsorbStep(2, Compact(2, 10, 0.2)));
  EXPECT_EQ(m.live_pivots(), 0u);
  EXPECT_EQ(m.Next(), 6u);
  EXPECT_EQ(m.router_pivot(), -1);
  EXPECT_EQ(m.cap(), 2.0);
}

TEST(SweepMachineTest, LegacyLazyBeginStartsAtTheFirstPivot) {
  const SweepShape shape = ThreeShards();
  const SweepWorld world = CleanWorld();
  SweepMachine m(shape, world, "q", 1, /*row=*/nullptr);
  const std::vector<char> begin = m.BeginPayload();
  PayloadReader r(begin);
  EXPECT_EQ(r.Str(), "q");
  EXPECT_EQ(r.U32(), 0u);  // unmasked
  EXPECT_TRUE(r.Done());
  for (std::size_t s = 0; s < 3; ++s) {
    ASSERT_TRUE(m.AbsorbBegin(s, Legacy(4, 1)));
  }
  EXPECT_EQ(m.Next(), 9u);
  EXPECT_EQ(m.cand_shard(), 2u);
  EXPECT_EQ(m.router_pivot(), 0);
}

TEST(SweepMachineTest, DropRemovesTheShardAndListsItOnce) {
  const SweepShape shape = ThreeShards();
  const SweepWorld world = CleanWorld();
  SweepMachine m(shape, world, "q", 1, /*row=*/nullptr);
  for (std::size_t s = 0; s < 3; ++s) {
    ASSERT_TRUE(m.AbsorbBegin(s, Legacy(4, 1)));
  }
  EXPECT_EQ(m.live(), 12u);
  EXPECT_EQ(m.live_pivots(), 3u);
  m.Drop(1);
  m.Drop(1);
  EXPECT_FALSE(m.active(1));
  EXPECT_EQ(m.live(), 8u);
  EXPECT_EQ(m.live_pivots(), 2u);

  ServeResult res;
  m.Finish(&res);
  EXPECT_EQ(res.missing_shards, std::vector<std::size_t>({1}));
  EXPECT_TRUE(res.partial);
  EXPECT_EQ(res.stats.shards_degraded, 1u);
}

TEST(SweepMachineTest, ExpireListsOnlyActiveShardsWithLiveCandidates) {
  const SweepShape shape = ThreeShards();
  const SweepWorld world = CleanWorld();
  SweepMachine m(shape, world, "q", 1, kRow);
  ASSERT_TRUE(m.AbsorbBegin(0, Compact(0, kSweepNone, kInf)));
  ASSERT_TRUE(m.AbsorbBegin(1, Compact(3, 6, 1.0)));
  ASSERT_TRUE(m.AbsorbBegin(2, Compact(2, 10, 1.0)));
  m.Drop(2);
  m.Expire();
  ServeResult res;
  m.Finish(&res);
  // Shard 0 has nothing left; shard 2 was already missing.
  EXPECT_EQ(res.missing_shards, std::vector<std::size_t>({1, 2}));
}

TEST(SweepMachineTest, FinishSortsAndDedupesMissingShards) {
  const SweepShape shape = ThreeShards();
  const SweepWorld world = CleanWorld();
  {
    SweepMachine m(shape, world, "q", 1, kRow);
    ASSERT_TRUE(m.AbsorbBegin(0, Compact(1, 2, 1.0)));
    ASSERT_TRUE(m.AbsorbBegin(1, Compact(1, 6, 1.0)));
    ASSERT_TRUE(m.AbsorbBegin(2, Compact(1, 10, 1.0)));
    m.Drop(2);
    m.Expire();
    m.Expire();
    ServeResult res;
    m.Finish(&res);
    EXPECT_EQ(res.missing_shards, std::vector<std::size_t>({0, 1, 2}));
    EXPECT_TRUE(res.partial);
    EXPECT_EQ(res.stats.shards_degraded, 3u);
  }
  {
    SweepMachine m(shape, world, "q", 1, kRow);
    ServeResult res;
    m.Finish(&res);
    EXPECT_TRUE(res.missing_shards.empty());
    EXPECT_FALSE(res.partial);
    EXPECT_EQ(res.stats.shards_degraded, 0u);
  }
}

TEST(SweepMachineTest, RowSeedingSkipsTombstonedPivotsAndAdmitsTies) {
  const SweepShape shape = ThreeShards();
  const SweepWorld world = WorldWithTombstone(1);
  // Pivot ordinals 0, 1, 2 are ids 9, 5, 1. Id 1 is closest but removed;
  // id 5 ties id 9 and wins on the lower id.
  const double row[3] = {2.0, 2.0, 0.5};
  SweepMachine m(shape, world, "q", 1, row);
  const std::vector<char> begin = m.BeginPayload();
  PayloadReader r(begin);
  EXPECT_EQ(r.Str(), "q");
  EXPECT_EQ(r.F64(), 2.0);  // the seed bound
  EXPECT_EQ(r.U64(), 3u);
  EXPECT_NE(r.Raw(3 * sizeof(double)), nullptr);
  EXPECT_TRUE(r.Done());

  ServeResult res;
  m.Finish(&res);
  ASSERT_EQ(res.neighbors.size(), 1u);
  EXPECT_EQ(res.neighbors[0].index, 5u);
  EXPECT_EQ(res.neighbors[0].distance, 2.0);
  EXPECT_EQ(res.stats.distance_computations, 3u);
  EXPECT_EQ(res.stats.pivot_computations, 3u);
}

TEST(SweepMachineTest, ClampsKToTheLiveSet) {
  const SweepShape shape = ThreeShards();
  SweepWorld world = WorldWithTombstone(3);
  world.delta_live[1] = 2;
  EXPECT_EQ(SweepMachine(shape, world, "q", 100, kRow).k(), 13u);
  EXPECT_EQ(SweepMachine(shape, world, "q", 4, nullptr).k(), 4u);
}

TEST(SweepMachineTest, RejectsRepliesNamingIdsOutsideTheShard) {
  const SweepShape shape = ThreeShards();
  const SweepWorld world = CleanWorld();
  SweepMachine m(shape, world, "q", 1, kRow);
  const std::vector<std::vector<char>> bad = {
      Compact(2, 100, 1.0),                  // id >= n
      Compact(2, 6, 1.0),                    // an id of shard 1
      Compact(2, kSweepNone, kInf, 200, 1.0),  // pivot id >= n
      Compact(2, 2, 1.0, 2, 1.0),            // next_pivot not a pivot
      Compact(2, 2, 1.0, 5, 1.0),            // a pivot of shard 1
      Compact(5, 2, 1.0),                    // live > shard size
  };
  for (const std::vector<char>& reply : bad) {
    EXPECT_FALSE(m.AbsorbBegin(0, reply));
    EXPECT_FALSE(m.AbsorbStep(0, reply));
  }
  std::vector<char> trailing = Compact(2, 2, 1.0);
  trailing.push_back(0);
  EXPECT_FALSE(m.AbsorbStep(0, trailing));
  // Nothing of a rejected reply was absorbed.
  EXPECT_EQ(m.live(), 0u);
  EXPECT_EQ(m.Next(), kSweepNone);
  // A pivot of its own shard is accepted.
  EXPECT_TRUE(m.AbsorbStep(0, Compact(2, 2, 1.0, 1, 1.0)));
}

TEST(SweepMachineTest, RejectsBeginsWithTheWrongSurvivorCount) {
  const SweepShape shape = ThreeShards();
  const SweepWorld clean = CleanWorld();
  SweepMachine legacy(shape, clean, "q", 1, /*row=*/nullptr);
  EXPECT_FALSE(legacy.AbsorbBegin(0, Legacy(3, 1)));
  EXPECT_FALSE(legacy.AbsorbBegin(0, Legacy(5, 1)));
  EXPECT_TRUE(legacy.AbsorbBegin(0, Legacy(4, 1)));

  const SweepWorld world = WorldWithTombstone(0);
  SweepMachine masked(shape, world, "q", 1, /*row=*/nullptr);
  EXPECT_FALSE(masked.AbsorbBegin(0, Compact(4, 2, 1.0)));
  EXPECT_TRUE(masked.AbsorbBegin(0, Compact(3, 2, 1.0)));
}

TEST(SweepMachineTest, RejectsMalformedEvalAndDeltaReplies) {
  const SweepShape shape = ThreeShards();
  SweepWorld world = CleanWorld();
  world.delta_live[0] = 1;
  SweepMachine m(shape, world, "q", 1, kRow);
  ASSERT_TRUE(m.AbsorbBegin(0, Compact(1, 2, 1.0)));
  ASSERT_EQ(m.Next(), 2u);
  EXPECT_FALSE(m.AbsorbEvalReply({}));
  PayloadWriter eval;
  eval.F64(1.0);
  EXPECT_TRUE(m.AbsorbEvalReply(eval.buf));

  EXPECT_TRUE(m.HasDelta(0));
  EXPECT_FALSE(m.HasDelta(1));
  PayloadWriter too_many;  // k = 1, two hits
  too_many.U64(2);
  too_many.U64(12);
  too_many.F64(0.5);
  too_many.U64(13);
  too_many.F64(0.25);
  too_many.U64(2);
  too_many.U64(0);
  EXPECT_FALSE(m.AbsorbDelta(too_many.buf));
  PayloadWriter hit;
  hit.U64(1);
  hit.U64(12);
  hit.F64(0.5);
  hit.U64(1);
  hit.U64(0);
  EXPECT_TRUE(m.AbsorbDelta(hit.buf));

  ServeResult res;
  m.Finish(&res);
  ASSERT_EQ(res.neighbors.size(), 1u);
  EXPECT_EQ(res.neighbors[0].index, 12u);
  EXPECT_EQ(res.stats.distance_computations, 3u + 1u + 1u);
}

}  // namespace
}  // namespace cned
