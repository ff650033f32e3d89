// Decision-level contracts of the distributed sweep's state machine, driven
// directly with hand-built worker replies (no processes): the strict '<'
// shard-order merge of the shards' stream heads, the stop at the k-th
// incumbent, the router-side lazy pivot phase and the rows its begin
// carries, shard loss and deadline bookkeeping, result finalisation, row
// seeding, and the rejection of malformed replies: candidate ids outside
// the shape, successors that do not follow the candidate, impossible
// distances, and delta hits outside the replying shard or the scan's cap.

#include "serve/sweep_machine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "distances/registry.h"
#include "serve/wire.h"

namespace cned {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Three shards of four ids each ([0,4), [4,8), [8,12)), one pivot per
/// shard; pivot ordinals run against id order so tie admission shows.
/// Pivots 0, 1, 2 are ids 9, 5, 1, the strings "abcdd", "abce" and
/// "wxyzzz" under dE. The pivot block holds their exact distances: its
/// columns are ids 1, 5, 9.
SweepShape ThreeShards() {
  SweepShape shape;
  shape.bases = {0, 4, 8, 12};
  shape.pivots = PivotIds({9, 5, 1}, 12, "ThreeShards");
  shape.pivot_strings = {"abcdd", "abce", "wxyzzz"};
  const StringDistancePtr de = MakeDistance("dE");
  // A one-segment f64 table over the 12 ids; only the pivot columns are
  // gathered into the block.
  std::vector<double> table(3 * 12, 0.0);
  for (std::size_t p = 0; p < 3; ++p) {
    for (std::size_t q = 0; q < 3; ++q) {
      table[p * 12 + shape.pivots.ids()[q]] =
          de->Distance(shape.pivot_strings[p], shape.pivot_strings[q]);
    }
  }
  QuantTableView view;
  view.f64 = table.data();
  shape.block = PivotBlock(shape.pivots, {12}, {view});
  return shape;
}

const StringDistance& Dist() {
  static const StringDistancePtr de = MakeDistance("dE");
  return *de;
}

SweepWorld CleanWorld() {
  SweepWorld world;
  world.base = Tombstones(12);
  world.shard_dead.assign(3, 0);
  world.delta_live.assign(3, 0);
  return world;
}

/// Base id `id` removed.
SweepWorld WorldWithTombstone(std::size_t id) {
  SweepWorld world = CleanWorld();
  world.base.Kill(id);
  ++world.shard_dead[id / 4];
  return world;
}

std::vector<char> Head(std::size_t next, double next_key) {
  SweepCompactResult head;
  head.next = next;
  head.next_key = next_key;
  PayloadWriter w;
  EncodeStreamHead(w, head);
  return w.buf;
}

/// A begin reply: the shard's base tombstone count, then `head`.
std::vector<char> WithDead(std::uint64_t dead, const std::vector<char>& head) {
  PayloadWriter w;
  w.U64(dead);
  w.Raw(head.data(), head.size());
  return w.buf;
}

/// A begin reply of a shard with no base tombstone.
std::vector<char> BeginReply(std::size_t next, double next_key) {
  return WithDead(0, Head(next, next_key));
}

/// The seed bound and the (rank, d) rows of a begin payload for "q".
struct Begin {
  double seed = 0.0;
  std::vector<std::pair<std::uint32_t, double>> rows;
};

Begin DecodeBegin(const std::vector<char>& payload, const std::string& q) {
  PayloadReader r(payload);
  EXPECT_EQ(r.Str(), q);
  Begin out;
  out.seed = r.F64();
  const std::uint64_t count = r.U64();
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    const std::uint32_t rank = r.U32();
    out.rows.emplace_back(rank, r.F64());
  }
  EXPECT_TRUE(r.Done());
  return out;
}

/// An eval reply: the distance, then the candidate's successor in its
/// shard's stream (none by default).
std::vector<char> EvalReply(double d, std::size_t next = kSweepNone,
                            double next_key = kInf) {
  PayloadWriter w;
  w.F64(d);
  const std::vector<char> head = Head(next, next_key);
  w.Raw(head.data(), head.size());
  return w.buf;
}

/// A delta-scan reply with one hit and one evaluation.
std::vector<char> DeltaHit(std::uint64_t id, double d) {
  PayloadWriter w;
  w.U64(1);
  w.U64(id);
  w.F64(d);
  w.U64(1);
  w.U64(0);
  return w.buf;
}

const double kRow[3] = {5.0, 5.0, 5.0};

TEST(SweepMachineTest, EqualKeysMergeInShardOrder) {
  const SweepShape shape = ThreeShards();
  const SweepWorld world = CleanWorld();
  SweepMachine m(shape, world, Dist(), "q", 1, kRow);
  ASSERT_TRUE(m.AbsorbBegin(0, BeginReply(2, 1.0)));
  ASSERT_TRUE(m.AbsorbBegin(1, BeginReply(6, 1.5)));
  ASSERT_TRUE(m.AbsorbBegin(2, BeginReply(10, 1.0)));
  EXPECT_EQ(m.Next(), 2u);
  EXPECT_EQ(m.cand_shard(), 0u);
  EXPECT_EQ(m.cap(), 5.0);

  // >= cap: abandoned, no incumbent change; shard 0's stream is done.
  ASSERT_TRUE(m.AbsorbEvalReply(EvalReply(7.0)));
  EXPECT_EQ(m.Next(), 10u);  // bound 1.0 before shard 1's 1.5
  EXPECT_EQ(m.cand_shard(), 2u);
  ASSERT_TRUE(m.AbsorbEvalReply(EvalReply(7.0)));
  EXPECT_EQ(m.Next(), 6u);
  EXPECT_EQ(m.cand_shard(), 1u);

  ServeResult res;
  m.Finish(&res);
  EXPECT_EQ(res.stats.distance_computations, 5u);  // 3 row evals + 2 visits
  EXPECT_EQ(res.stats.pivot_computations, 3u);
  EXPECT_EQ(res.stats.bounded_abandons, 2u);
}

// The pivot phase runs router-side, in the constructor, as in process:
// with no base tombstone it starts at global pivot 0 (id 9, "abcdd", d = 2)
// although id 5 has the lower length bound, then visits id 5 (bound
// |2 - 2| = 0 < 2, d = 1); id 1 is then eliminated (bound |1 - 6| >= 1).
// The begin lists exactly the visited ranks, seeded at the k-th incumbent.
TEST(SweepMachineTest, LazyBeginListsThePivotVisitsFromPivotZero) {
  const SweepShape shape = ThreeShards();
  const SweepWorld world = CleanWorld();
  SweepMachine m(shape, world, Dist(), "abcf", 1, /*row=*/nullptr);
  const Begin begin = DecodeBegin(m.BeginPayload(), "abcf");
  EXPECT_EQ(begin.seed, 1.0);
  ASSERT_EQ(begin.rows.size(), 2u);
  EXPECT_EQ(begin.rows[0].first, 0u);
  EXPECT_EQ(begin.rows[0].second, 2.0);
  EXPECT_EQ(begin.rows[1].first, 1u);
  EXPECT_EQ(begin.rows[1].second, 1.0);

  ServeResult res;
  m.Finish(&res);
  ASSERT_EQ(res.neighbors.size(), 1u);
  EXPECT_EQ(res.neighbors[0].index, 5u);
  EXPECT_EQ(res.stats.distance_computations, 2u);
  EXPECT_EQ(res.stats.pivot_computations, 2u);
  EXPECT_EQ(res.stats.bounded_abandons, 0u);
}

// With pivot 0 (id 9) removed the phase starts at the minimal-bound live
// pivot: id 5 (length bound 0), not the lower id 1 (length bound 2). Its
// row then eliminates id 1, and the dead pivot is never visited. A dead
// pivot is skipped whatever its bound.
TEST(SweepMachineTest, LazyBeginStartsAtTheMinimalBoundLivePivot) {
  const SweepShape shape = ThreeShards();
  const SweepWorld world = WorldWithTombstone(9);
  SweepMachine m(shape, world, Dist(), "abcf", 1, /*row=*/nullptr);
  const Begin begin = DecodeBegin(m.BeginPayload(), "abcf");
  EXPECT_EQ(begin.seed, 1.0);
  ASSERT_EQ(begin.rows.size(), 1u);
  EXPECT_EQ(begin.rows[0].first, 1u);
  EXPECT_EQ(begin.rows[0].second, 1.0);

  ServeResult res;
  m.Finish(&res);
  ASSERT_EQ(res.neighbors.size(), 1u);
  EXPECT_EQ(res.neighbors[0].index, 5u);
  EXPECT_EQ(res.stats.pivot_computations, 1u);

  // With id 5 removed instead, its lowest length bound does not matter:
  // the phase starts at id 9 (bound 1), whose row eliminates id 1.
  const SweepWorld other = WorldWithTombstone(5);
  SweepMachine m5(shape, other, Dist(), "abcf", 1, /*row=*/nullptr);
  const Begin begin5 = DecodeBegin(m5.BeginPayload(), "abcf");
  EXPECT_EQ(begin5.seed, 2.0);
  ASSERT_EQ(begin5.rows.size(), 1u);
  EXPECT_EQ(begin5.rows[0].first, 0u);
  EXPECT_EQ(begin5.rows[0].second, 2.0);
}

// A lazy read is one begin, then one eval per non-pivot visit: the pivot
// visits of its begin are paid router-side, and the heads' bounds stop the
// sweep once they reach the incumbent.
TEST(SweepMachineTest, LazyReadSendsNoEvalForAPivotVisit) {
  const SweepShape shape = ThreeShards();
  const SweepWorld world = CleanWorld();
  SweepMachine m(shape, world, Dist(), "abcf", 1, /*row=*/nullptr);
  ASSERT_EQ(DecodeBegin(m.BeginPayload(), "abcf").rows.size(), 2u);
  ASSERT_TRUE(m.AbsorbBegin(0, BeginReply(2, 0.0)));
  ASSERT_TRUE(m.AbsorbBegin(1, BeginReply(6, 0.5)));
  ASSERT_TRUE(m.AbsorbBegin(2, BeginReply(kSweepNone, kInf)));
  std::size_t evals = 0;
  for (std::size_t c = m.Next(); c != kSweepNone; c = m.Next()) {
    ASSERT_EQ(c, 2u);
    EXPECT_EQ(m.cap(), 1.0);  // the pivot phase's incumbent, id 5 at 1
    // Id 2 at distance 0 becomes the incumbent: shard 0's next survivor
    // (bound 0.75) and shard 1's head (0.5) are at or above it.
    ASSERT_TRUE(m.AbsorbEvalReply(EvalReply(0.0, 3, 0.75)));
    ++evals;
  }
  EXPECT_EQ(evals, 1u);
  ServeResult res;
  m.Finish(&res);
  ASSERT_EQ(res.neighbors.size(), 1u);
  EXPECT_EQ(res.neighbors[0].index, 2u);
  // Two pivot visits in the begin, one non-pivot visit.
  EXPECT_EQ(res.stats.pivot_computations, 2u);
  EXPECT_EQ(res.stats.distance_computations, 2u + evals);
}

// A row read from begin to Finish with evals only: each eval reply moves
// its shard's head to the successor it names, the least head (lowest id on
// equal bounds) is visited next while it is below the k-th incumbent, and
// the first head at or above it ends the sweep.
TEST(SweepMachineTest, ReadRunsFromBeginToFinishWithEvalsOnly) {
  const SweepShape shape = ThreeShards();
  const SweepWorld world = CleanWorld();
  SweepMachine m(shape, world, Dist(), "q", 1, kRow);  // id 1 at 5 seeds
  ASSERT_TRUE(m.AbsorbBegin(0, BeginReply(0, 1.0)));
  ASSERT_TRUE(m.AbsorbBegin(1, BeginReply(4, 2.0)));
  ASSERT_TRUE(m.AbsorbBegin(2, BeginReply(8, 3.0)));

  ASSERT_EQ(m.Next(), 0u);
  EXPECT_EQ(m.cap(), 5.0);
  ASSERT_TRUE(m.AbsorbEvalReply(EvalReply(4.0, 3, 2.0)));  // admitted
  ASSERT_EQ(m.Next(), 3u);  // bound 2.0 ties shard 1's head: lower id
  EXPECT_EQ(m.cap(), 4.0);
  ASSERT_TRUE(m.AbsorbEvalReply(EvalReply(2.5)));  // admitted; shard 0 done
  ASSERT_EQ(m.Next(), 4u);
  EXPECT_EQ(m.cap(), 2.5);
  {
    const std::vector<char> eval = m.EvalPayload();
    PayloadReader r(eval);
    EXPECT_EQ(r.U64(), 4u);
    EXPECT_EQ(r.F64(), 2.5);
    EXPECT_TRUE(r.Done());
  }
  ASSERT_TRUE(m.AbsorbEvalReply(EvalReply(kInf, 7, 2.75)));  // abandoned
  // Shard 1's head (2.75) and shard 2's (3.0) are at or above 2.5.
  EXPECT_EQ(m.Next(), kSweepNone);

  ServeResult res;
  m.Finish(&res);
  ASSERT_EQ(res.neighbors.size(), 1u);
  EXPECT_EQ(res.neighbors[0].index, 3u);
  EXPECT_EQ(res.neighbors[0].distance, 2.5);
  EXPECT_EQ(res.stats.distance_computations, 3u + 3u);
  EXPECT_EQ(res.stats.pivot_computations, 3u);
  EXPECT_EQ(res.stats.bounded_abandons, 1u);
  EXPECT_FALSE(res.partial);
}

TEST(SweepMachineTest, DropRemovesTheShardAndListsItOnce) {
  const SweepShape shape = ThreeShards();
  const SweepWorld world = CleanWorld();
  SweepMachine m(shape, world, Dist(), "q", 1, /*row=*/nullptr);
  // Shard 1's candidate, id 4 at bound 0.25, would lead the merge.
  for (std::size_t s = 0; s < 3; ++s) {
    ASSERT_TRUE(m.AbsorbBegin(s, BeginReply(4 * s, s == 1 ? 0.25 : 0.5)));
  }
  m.Drop(1);
  m.Drop(1);
  EXPECT_FALSE(m.active(1));
  // The sweep visits only the active shards' candidates: id 0, then id 8
  // once shard 0 has emptied, then nothing.
  EXPECT_EQ(m.Next(), 0u);
  ASSERT_TRUE(m.AbsorbEvalReply(EvalReply(3.0)));
  EXPECT_EQ(m.Next(), 8u);
  ASSERT_TRUE(m.AbsorbEvalReply(EvalReply(3.0)));
  EXPECT_EQ(m.Next(), kSweepNone);

  ServeResult res;
  m.Finish(&res);
  EXPECT_EQ(res.stats.distance_computations - res.stats.pivot_computations,
            2u);
  EXPECT_EQ(res.missing_shards, std::vector<std::size_t>({1}));
  EXPECT_TRUE(res.partial);
  EXPECT_EQ(res.stats.shards_degraded, 1u);
}

TEST(SweepMachineTest, ExpireListsOnlyActiveShardsWithLiveCandidates) {
  const SweepShape shape = ThreeShards();
  const SweepWorld world = CleanWorld();
  SweepMachine m(shape, world, Dist(), "q", 1, kRow);
  ASSERT_TRUE(m.AbsorbBegin(0, BeginReply(kSweepNone, kInf)));
  ASSERT_TRUE(m.AbsorbBegin(1, BeginReply(6, 1.0)));
  ASSERT_TRUE(m.AbsorbBegin(2, BeginReply(10, 1.0)));
  m.Drop(2);
  m.Expire();
  ServeResult res;
  m.Finish(&res);
  // Shard 0 has nothing left; shard 2 was already missing.
  EXPECT_EQ(res.missing_shards, std::vector<std::size_t>({1, 2}));

  // A head at or above the k-th incumbent holds nothing to visit.
  SweepMachine late(shape, world, Dist(), "q", 1, kRow);
  ASSERT_TRUE(late.AbsorbBegin(0, BeginReply(2, 1.0)));
  ASSERT_TRUE(late.AbsorbBegin(1, BeginReply(6, 3.0)));
  ASSERT_EQ(late.Next(), 2u);
  ASSERT_TRUE(late.AbsorbEvalReply(EvalReply(2.0, 3, 1.5)));
  late.Expire();
  ServeResult late_res;
  late.Finish(&late_res);
  EXPECT_EQ(late_res.missing_shards, std::vector<std::size_t>({0}));
}

TEST(SweepMachineTest, FinishSortsAndDedupesMissingShards) {
  const SweepShape shape = ThreeShards();
  const SweepWorld world = CleanWorld();
  {
    SweepMachine m(shape, world, Dist(), "q", 1, kRow);
    ASSERT_TRUE(m.AbsorbBegin(0, BeginReply(2, 1.0)));
    ASSERT_TRUE(m.AbsorbBegin(1, BeginReply(6, 1.0)));
    ASSERT_TRUE(m.AbsorbBegin(2, BeginReply(10, 1.0)));
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
    SweepMachine m(shape, world, Dist(), "q", 1, kRow);
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
  SweepMachine m(shape, world, Dist(), "q", 1, row);
  // Every row is broadcast, the removed pivot's too, at the seed bound.
  const Begin begin = DecodeBegin(m.BeginPayload(), "q");
  EXPECT_EQ(begin.seed, 2.0);
  ASSERT_EQ(begin.rows.size(), 3u);
  for (std::uint32_t p = 0; p < 3; ++p) {
    EXPECT_EQ(begin.rows[p].first, p);
    EXPECT_EQ(begin.rows[p].second, row[p]);
  }

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
  EXPECT_EQ(SweepMachine(shape, world, Dist(), "q", 100, kRow).k(), 13u);
  EXPECT_EQ(SweepMachine(shape, world, Dist(), "q", 4, nullptr).k(), 4u);
}

TEST(SweepMachineTest, RejectsBeginsNamingIdsOutsideTheShard) {
  const SweepShape shape = ThreeShards();
  const SweepWorld world = CleanWorld();
  SweepMachine m(shape, world, Dist(), "q", 1, kRow);
  SweepMachine expired(shape, world, Dist(), "q", 1, kRow);
  std::vector<char> trailing = Head(2, 1.0);
  trailing.push_back(0);
  const std::vector<std::vector<char>> bad = {
      Head(100, 1.0),         // id >= n
      Head(6, 1.0),           // an id of shard 1
      Head(2, std::nan("")),  // a NaN bound
      Head(2, -1.0),          // a negative bound
      trailing,
  };
  for (SweepMachine* machine : {&m, &expired}) {
    for (const std::vector<char>& reply : bad) {
      EXPECT_FALSE(machine->AbsorbBegin(0, WithDead(0, reply)));
    }
  }
  // Nothing of a rejected reply was absorbed: no candidate is next, and at
  // the deadline no shard holds live candidates to list missing.
  EXPECT_EQ(m.Next(), kSweepNone);
  expired.Expire();
  ServeResult res;
  expired.Finish(&res);
  EXPECT_TRUE(res.missing_shards.empty());
  // An id of its own shard is accepted.
  EXPECT_TRUE(m.AbsorbBegin(0, BeginReply(2, 1.0)));
}

// An eval reply names the candidate's successor in its shard's stream, so
// the successor must be an id of that shard that follows the candidate in
// (bound, id) order: anything else would visit outside the shard, revisit
// a candidate, or never end the sweep.
TEST(SweepMachineTest, RejectsEvalRepliesWhoseSuccessorDoesNotFollow) {
  const SweepShape shape = ThreeShards();
  const SweepWorld world = CleanWorld();
  SweepMachine m(shape, world, Dist(), "q", 1, kRow);
  ASSERT_TRUE(m.AbsorbBegin(0, BeginReply(2, 1.0)));
  ASSERT_EQ(m.Next(), 2u);
  const std::vector<std::vector<char>> bad = {
      EvalReply(0.5, 6, 1.5),           // an id of shard 1
      EvalReply(0.5, 100, 1.5),         // id >= n
      EvalReply(0.5, 3, 0.5),           // a bound below the candidate's
      EvalReply(0.5, 0, 1.0),           // an equal bound, a lower id
      EvalReply(0.5, 2, 1.0),           // the candidate itself
      EvalReply(0.5, 3, std::nan("")),  // a NaN bound
  };
  for (const std::vector<char>& reply : bad) {
    EXPECT_FALSE(m.AbsorbEvalReply(reply));
  }
  // A bare distance is not an eval reply either.
  PayloadWriter bare;
  bare.F64(0.5);
  EXPECT_FALSE(m.AbsorbEvalReply(bare.buf));
  // Nothing was absorbed: the candidate is still the one to evaluate, and
  // an equal bound at a higher id follows it.
  ASSERT_TRUE(m.AbsorbEvalReply(EvalReply(0.5, 3, 1.0)));
  ServeResult res;
  m.Finish(&res);
  ASSERT_EQ(res.neighbors.size(), 1u);
  EXPECT_EQ(res.neighbors[0].index, 2u);
  EXPECT_EQ(res.stats.distance_computations, 3u + 1u);
}

// The begin reply leads with the shard's base tombstone count, which must
// be the router's: a worker that masked other slots would sweep another
// live set.
TEST(SweepMachineTest, RejectsBeginsWithTheWrongTombstoneCount) {
  const SweepShape shape = ThreeShards();
  const SweepWorld clean = CleanWorld();
  SweepMachine unmasked(shape, clean, Dist(), "q", 1, kRow);
  EXPECT_FALSE(unmasked.AbsorbBegin(0, WithDead(1, Head(2, 1.0))));
  EXPECT_TRUE(unmasked.AbsorbBegin(0, WithDead(0, Head(2, 1.0))));

  const SweepWorld world = WorldWithTombstone(0);
  SweepMachine masked(shape, world, Dist(), "q", 1, kRow);
  EXPECT_FALSE(masked.AbsorbBegin(0, WithDead(0, Head(2, 1.0))));
  EXPECT_TRUE(masked.AbsorbBegin(0, WithDead(1, Head(2, 1.0))));
  EXPECT_FALSE(masked.AbsorbBegin(1, WithDead(1, Head(6, 1.0))));
}

TEST(SweepMachineTest, RejectsMalformedEvalAndDeltaReplies) {
  const SweepShape shape = ThreeShards();
  SweepWorld world = CleanWorld();
  world.delta_live[0] = 1;
  SweepMachine m(shape, world, Dist(), "q", 1, kRow);
  ASSERT_TRUE(m.AbsorbBegin(0, BeginReply(2, 1.0)));
  ASSERT_EQ(m.Next(), 2u);
  EXPECT_FALSE(m.AbsorbEvalReply({}));
  EXPECT_TRUE(m.AbsorbEvalReply(EvalReply(1.0)));

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
  EXPECT_FALSE(m.AbsorbDelta(0, too_many.buf));
  PayloadWriter hit;
  hit.U64(1);
  hit.U64(12);
  hit.F64(0.5);
  hit.U64(1);
  hit.U64(0);
  EXPECT_TRUE(m.AbsorbDelta(0, hit.buf));

  ServeResult res;
  m.Finish(&res);
  ASSERT_EQ(res.neighbors.size(), 1u);
  EXPECT_EQ(res.neighbors[0].index, 12u);
  EXPECT_EQ(res.stats.distance_computations, 3u + 1u + 1u);
}

TEST(SweepMachineTest, RejectsImpossibleEvalReplies) {
  const SweepShape shape = ThreeShards();
  const SweepWorld world = CleanWorld();
  SweepMachine m(shape, world, Dist(), "q", 1, kRow);
  ASSERT_TRUE(m.AbsorbBegin(0, BeginReply(2, 1.0)));
  ASSERT_EQ(m.Next(), 2u);
  ASSERT_EQ(m.cap(), 5.0);
  // A distance is >= 0 or +inf; a NaN would reach every later bound.
  EXPECT_FALSE(m.AbsorbEvalReply(EvalReply(std::nan(""))));
  EXPECT_FALSE(m.AbsorbEvalReply(EvalReply(-1.0)));
  EXPECT_FALSE(m.AbsorbEvalReply(EvalReply(-kInf)));
  // Nothing of a rejected reply was absorbed: the row's incumbent stands.
  EXPECT_TRUE(m.AbsorbEvalReply(EvalReply(kInf)));  // abandoned, counted

  ServeResult res;
  m.Finish(&res);
  ASSERT_EQ(res.neighbors.size(), 1u);
  EXPECT_EQ(res.neighbors[0].index, 1u);
  EXPECT_EQ(res.neighbors[0].distance, 5.0);
  EXPECT_EQ(res.stats.distance_computations, 3u + 1u);
  EXPECT_EQ(res.stats.bounded_abandons, 1u);
}

TEST(SweepMachineTest, RejectsDeltaHitsOutsideTheShardOrTheCap) {
  const SweepShape shape = ThreeShards();
  SweepWorld world = CleanWorld();
  world.delta_live[0] = 1;
  world.delta_live[1] = 1;
  // Delta ids start at n = 12 and go round-robin: 12 is shard 0's, 13
  // shard 1's. The scan's cap is the row's k-th incumbent, 5.0.
  SweepMachine m(shape, world, Dist(), "q", 1, kRow);
  EXPECT_FALSE(m.AbsorbDelta(0, DeltaHit(3, 0.5)));    // a base id
  EXPECT_FALSE(m.AbsorbDelta(0, DeltaHit(13, 0.5)));   // shard 1's id
  EXPECT_FALSE(m.AbsorbDelta(1, DeltaHit(12, 0.5)));   // shard 0's id
  EXPECT_FALSE(m.AbsorbDelta(0, DeltaHit(12, 5.0)));   // at the cap
  EXPECT_FALSE(m.AbsorbDelta(0, DeltaHit(12, std::nan(""))));
  EXPECT_TRUE(m.AbsorbDelta(1, DeltaHit(13, 4.5)));
  EXPECT_TRUE(m.AbsorbDelta(0, DeltaHit(12, 4.5)));

  ServeResult res;
  m.Finish(&res);
  ASSERT_EQ(res.neighbors.size(), 1u);
  EXPECT_EQ(res.neighbors[0].index, 12u);  // ties go to the lower id
  EXPECT_EQ(res.neighbors[0].distance, 4.5);
  // The three row evaluations plus the two accepted scans' one each.
  EXPECT_EQ(res.stats.distance_computations, 3u + 2u);
}

}  // namespace
}  // namespace cned
