// The distributed serving tier's two contracts, pinned end to end over
// real forked worker processes:
//
//   1. Healthy = bit-identical. A router over 1/2/4/8 workers returns the
//      same neighbours, the same distances AND the same QueryStats as the
//      in-process Laesa, on both the lazy and the pivot-row path (the
//      path matrix, tests/path_matrix.h).
//   2. Degraded = correctly flagged. Crashed (kill -9), unresponsive,
//      and corrupt-stream workers cost exactly their shard: results come
//      back partial with the missed shards named, surviving distances
//      stay exact, respawn restores full health, and the same fault
//      schedule over the same queries reproduces identical partial
//      results run to run.
//   3. Replicated = exact through failure. With a replica group of R=2
//      per shard (the default), losing any shard's *primary* mid-sweep —
//      injected crash or a real kill -9 — promotes the standby, whose
//      slab state is bit-identical by state-machine replication, and the
//      query completes exact and UNFLAGGED. Only losing a whole group
//      degrades. Slow primaries are hedged on Evals; disagreeing
//      standbys are evicted; the health loop revives dead replicas in
//      the background.
//
// Fault directives without a `replica=` selector fire on every group
// member (identical op sequences), so the contract-2 tests above keep
// their exact semantics at R=2: the injected fault takes out the whole
// group.
//
// `DriveSweeps` is the router's one executor: `KNearest` and
// `KNearestWithRow` run it over a one-job feed, and the driven cases below
// feed it directly, as the admission front end does.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datasets/dictionary_gen.h"
#include "datasets/perturb.h"
#include "datasets/sharded_prototype_store.h"
#include "distances/registry.h"
#include "search/laesa.h"
#include "search/sweep_kernel.h"
#include "search/table_quant.h"
#include "serve/router.h"
#include "serve/shard_snapshot.h"
#include "tests/path_matrix.h"
#include "tests/snapshot_test_util.h"

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

/// In-process reference index + its serving snapshot on disk.
struct Deployment {
  TempDir dir{"cned_serve_"};
  std::unique_ptr<ShardedPrototypeStore> store;
  std::unique_ptr<Laesa> index;

  Deployment(const std::vector<std::string>& protos, std::size_t shards,
             std::size_t pivots,
             TablePrecision precision = DefaultTablePrecision()) {
    store = std::make_unique<ShardedPrototypeStore>(protos, shards);
    index = std::make_unique<Laesa>(*store, MakeDistance("dE"), pivots,
                                           precision);
    SaveServingSnapshot(*index, dir.path);
  }
};

/// The pivot-row path over a batch of queries: each row evaluated from the
/// manifest's pivot strings, then one `KNearestWithRow` per query — the
/// calls the admission front end (serve/engine.h) makes.
std::vector<ServeResult> KNearestBatch(ServeRouter& router,
                                       const std::vector<std::string>& queries,
                                       std::size_t k) {
  auto dist = MakeDistance("dE");
  const std::vector<std::string>& pivots = router.pivot_strings();
  std::vector<double> row(pivots.size());
  std::vector<ServeResult> out;
  for (const std::string& q : queries) {
    for (std::size_t p = 0; p < pivots.size(); ++p) {
      row[p] = dist->Distance(q, pivots[p]);
    }
    out.push_back(router.KNearestWithRow(q, k, row));
  }
  return out;
}

/// Whether any member of shard `s`'s replica group is alive.
bool AnyReplicaAlive(const ServeRouter& router, std::size_t s) {
  for (std::size_t r = 0; r < router.replica_count(); ++r) {
    if (router.replica_alive(s, r)) return true;
  }
  return false;
}

// --- Contract 1: healthy bit-identity --------------------------------------

/// The healthy fleet at R = 2 over 1/2/4/8 workers, on the path matrix.
PathMatrix FleetMatrix(const Workload& w) {
  PathMatrix m;
  m.protos = w.protos;
  m.queries = w.queries;
  m.pivots = 8;
  m.shards = {1, 2, 4, 8};
  m.replicas = {2};
  return m;
}

TEST(ServeDistributedTest, HealthyLazyPathBitIdenticalAcrossWorkerCounts) {
  PathMatrix m = FleetMatrix(MakeWorkload(120, 8, 7100));
  m.ks = {1, 5};
  RunPathMatrix(m);
}

TEST(ServeDistributedTest, HealthyBatchPathBitIdenticalAcrossWorkerCounts) {
  PathMatrix m = FleetMatrix(MakeWorkload(120, 8, 7200));
  m.entries = {Entry::kRow};
  m.ks = {4};
  RunPathMatrix(m);
}

// --- Contract 2: flagged degradation ---------------------------------------

TEST(ServeDistributedTest, CrashMidSweepDegradesExactlyThatShard) {
  Workload w = MakeWorkload(150, 3, 7300);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = TestServeOptions("dE");
  opt.fault_spec = "crash:shard=2,op=step,nth=2";
  opt.auto_respawn = false;
  ServeRouter router(dep.dir.path, opt);

  const ServeResult r = router.KNearest(w.queries[0], 3);
  EXPECT_TRUE(r.partial);
  ASSERT_EQ(r.missing_shards, std::vector<std::size_t>{2});
  EXPECT_EQ(r.stats.shards_degraded, 1u);
  EXPECT_FALSE(AnyReplicaAlive(router, 2));
  // Every distance the degraded answer reports is still exact.
  auto dist = MakeDistance("dE");
  for (const NeighborResult& nb : r.neighbors) {
    EXPECT_EQ(nb.distance, dist->Distance(w.queries[0], w.protos[nb.index]));
  }

  // Respawn restores full health and bit-identity. The no-replica-selector
  // crash directive fired on both group members, so respawn revives two
  // processes.
  EXPECT_FALSE(router.PingAll());
  EXPECT_EQ(router.RespawnDead(), 2u);
  EXPECT_TRUE(router.PingAll());
  QueryStats ref;
  const auto want = dep.index->KNearest(w.queries[1], 3, &ref);
  ExpectSameAnswer(AnswerOf(want, ref),
                   ServeAnswer(router.KNearest(w.queries[1], 3)),
                   "post-respawn");
}

TEST(ServeDistributedTest, UnresponsiveStepIsNeverRetriedAndDegrades) {
  Workload w = MakeWorkload(100, 2, 7400);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = TestServeOptions("dE");
  // The worker swallows one Step: the router must not resend a mutating
  // op — the shard is degraded on the first timeout.
  opt.fault_spec = "drop:shard=1,op=step,nth=1";
  opt.auto_respawn = false;
  ServeRouter router(dep.dir.path, opt);
  const ServeResult r = router.Nearest(w.queries[0]);
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.missing_shards, std::vector<std::size_t>{1});
  EXPECT_FALSE(AnyReplicaAlive(router, 1));
}

TEST(ServeDistributedTest, UnresponsiveIdempotentOpIsRetriedTransparently) {
  Workload w = MakeWorkload(100, 4, 7500);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = TestServeOptions("dE");
  // Dropped Eval and dropped BeginRow replies: both are idempotent, so
  // the retry path must absorb them with no effect on the answer.
  opt.fault_spec = "drop:shard=1,op=eval,nth=1|drop:shard=3,op=begin,nth=1";
  ServeRouter router(dep.dir.path, opt);
  for (const auto& q : w.queries) {
    QueryStats ref;
    const auto want = dep.index->KNearest(q, 3, &ref);
    ExpectSameAnswer(AnswerOf(want, ref), ServeAnswer(router.KNearest(q, 3)),
                     "retried q=" + q);
  }
  EXPECT_TRUE(router.PingAll());
}

TEST(ServeDistributedTest, CorruptReplyIsTreatedAsDeadShard) {
  Workload w = MakeWorkload(100, 2, 7600);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = TestServeOptions("dE");
  opt.fault_spec = "corrupt:shard=0,op=step,nth=1";
  opt.auto_respawn = false;
  ServeRouter router(dep.dir.path, opt);
  const ServeResult r = router.Nearest(w.queries[0]);
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.missing_shards, std::vector<std::size_t>{0});
  EXPECT_FALSE(AnyReplicaAlive(router, 0));
}

TEST(ServeDistributedTest, DeadlineExpiryReturnsFlaggedPartialIncumbents) {
  Workload w = MakeWorkload(200, 1, 7700);
  Deployment dep(w.protos, 4, 12);
  ServeOptions opt = TestServeOptions("dE");
  // Every remote evaluation outsleeps the per-op window, so the retries
  // burn the whole budget: the sweep hits the deadline with candidates
  // still live and must hand back flagged incumbents, not block.
  opt.fault_spec = "delay:op=eval,ms=300";
  opt.query_deadline_ms = 250;
  opt.auto_respawn = false;
  ServeRouter router(dep.dir.path, opt);
  const ServeResult r = router.KNearest(w.queries[0], 5);
  EXPECT_TRUE(r.partial);
  EXPECT_FALSE(r.missing_shards.empty());
  EXPECT_EQ(r.stats.shards_degraded, r.missing_shards.size());
  // Whatever incumbents made it in before the deadline are exact.
  auto dist = MakeDistance("dE");
  for (const NeighborResult& nb : r.neighbors) {
    EXPECT_EQ(nb.distance, dist->Distance(w.queries[0], w.protos[nb.index]));
  }
}

TEST(ServeDistributedTest, CrashMidBatchCostsOneQueryAndAutoRespawns) {
  Workload w = MakeWorkload(120, 6, 7800);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = TestServeOptions("dE");
  // The worker for shard 1 dies when query 3's BeginRow arrives; respawn
  // runs between queries, so exactly one answer in the batch is partial.
  opt.fault_spec = "crash:shard=1,op=begin,nth=3";
  ServeRouter router(dep.dir.path, opt);
  const auto got = KNearestBatch(router, w.queries, 3);
  ASSERT_EQ(got.size(), w.queries.size());
  std::vector<double> row(dep.index->pivot_count());
  std::size_t partials = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].partial) {
      ++partials;
      EXPECT_EQ(got[i].missing_shards, std::vector<std::size_t>{1}) << i;
      continue;
    }
    QueryStats ref;
    dep.index->ComputePivotRow(w.queries[i], row.data(), &ref);
    const auto want =
        dep.index->KNearestWithPivotRow(w.queries[i], 3, row.data(), &ref);
    ExpectSameAnswer(AnswerOf(want, ref), ServeAnswer(got[i]),
                     "batch q=" + w.queries[i]);
  }
  EXPECT_EQ(partials, 1u);
  EXPECT_TRUE(AnyReplicaAlive(router, 1));
}

TEST(ServeDistributedTest, KillNineOfWholeGroupIsSurvivedFlaggedAndRecovered) {
  Workload w = MakeWorkload(120, 5, 7900);
  Deployment dep(w.protos, 4, 8);
  ServeRouter router(dep.dir.path, TestServeOptions("dE"));

  QueryStats ref0;
  const auto want0 = dep.index->KNearest(w.queries[0], 3, &ref0);
  ExpectSameAnswer(AnswerOf(want0, ref0),
                   ServeAnswer(router.KNearest(w.queries[0], 3)), "pre-kill");

  // A real kill -9 of shard 2's *entire replica group*, not an injected
  // fault: the workers vanish between queries and the router finds out
  // mid-query from the dead sockets. With no member left to promote, the
  // shard degrades.
  std::vector<pid_t> victims;
  for (std::size_t r = 0; r < router.replica_count(); ++r) {
    const pid_t victim = router.replica_pid(2, r);
    ASSERT_GT(victim, 0);
    ASSERT_EQ(kill(victim, SIGKILL), 0);
    victims.push_back(victim);
  }

  const ServeResult during = router.KNearest(w.queries[1], 3);
  EXPECT_TRUE(during.partial);
  EXPECT_EQ(during.missing_shards, std::vector<std::size_t>{2});
  auto dist = MakeDistance("dE");
  for (const NeighborResult& nb : during.neighbors) {
    EXPECT_EQ(nb.distance, dist->Distance(w.queries[1], w.protos[nb.index]));
  }

  // auto_respawn brings shard 2 back for the next query: full bit-identity
  // again, under fresh pids.
  QueryStats ref2;
  const auto want2 = dep.index->KNearest(w.queries[2], 3, &ref2);
  ExpectSameAnswer(AnswerOf(want2, ref2),
                   ServeAnswer(router.KNearest(w.queries[2], 3)),
                   "post-respawn");
  EXPECT_TRUE(AnyReplicaAlive(router, 2));
  EXPECT_NE(router.replica_pid(2, router.primary_of(2)), victims[0]);
}

// --- Contract 3: replica-group failover ------------------------------------

TEST(ServeDistributedTest, EveryPrimaryCrashedMidSweepStaysExactUnflagged) {
  Workload w = MakeWorkload(150, 3, 8400);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = TestServeOptions("dE");
  // Each shard's *primary* (replica 0) crashes on its 2nd visit pass.
  // The standby holds bit-identical slab state, so every shard fails
  // over mid-sweep and the query must come back exact and unflagged.
  opt.fault_spec = "crash:op=step,nth=2,replica=0";
  opt.auto_respawn = false;
  ServeRouter router(dep.dir.path, opt);

  QueryStats ref;
  const auto want = dep.index->KNearest(w.queries[0], 3, &ref);
  const ServeResult r = router.KNearest(w.queries[0], 3);
  ExpectSameAnswer(AnswerOf(want, ref), ServeAnswer(r), "mid-sweep failover");
  EXPECT_EQ(r.failovers, 4u);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(router.primary_of(s), 1u) << "shard " << s;
    EXPECT_FALSE(router.replica_alive(s, 0)) << "shard " << s;
    EXPECT_TRUE(router.replica_alive(s, 1)) << "shard " << s;
  }

  // The promotion is durable: the next query runs on the standbys with no
  // further failovers (and no respawn ever happened).
  QueryStats ref1;
  const auto want1 = dep.index->KNearest(w.queries[1], 3, &ref1);
  const ServeResult r1 = router.KNearest(w.queries[1], 3);
  ExpectSameAnswer(AnswerOf(want1, ref1), ServeAnswer(r1), "post-failover");
  EXPECT_EQ(r1.failovers, 0u);
}

TEST(ServeDistributedTest, EveryPrimaryCrashedMidBatchStaysExactUnflagged) {
  Workload w = MakeWorkload(150, 5, 8500);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = TestServeOptions("dE");
  opt.fault_spec = "crash:op=step,nth=2,replica=0";
  ServeRouter router(dep.dir.path, opt);
  const auto got = KNearestBatch(router, w.queries, 3);
  ASSERT_EQ(got.size(), w.queries.size());
  std::vector<double> row(dep.index->pivot_count());
  std::size_t failovers = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    QueryStats ref;
    dep.index->ComputePivotRow(w.queries[i], row.data(), &ref);
    const auto want =
        dep.index->KNearestWithPivotRow(w.queries[i], 3, row.data(), &ref);
    ExpectSameAnswer(AnswerOf(want, ref), ServeAnswer(got[i]),
                     "batch failover q=" + w.queries[i]);
    failovers += got[i].failovers;
  }
  EXPECT_EQ(failovers, 4u);  // one promotion per shard, all in one query
}

TEST(ServeDistributedTest, RealKillNineOfPrimaryFailsOverMidQuery) {
  Workload w = MakeWorkload(120, 5, 8600);
  Deployment dep(w.protos, 4, 8);
  ServeRouter router(dep.dir.path, TestServeOptions("dE"));

  QueryStats ref0;
  const auto want0 = dep.index->KNearest(w.queries[0], 3, &ref0);
  ExpectSameAnswer(AnswerOf(want0, ref0),
                   ServeAnswer(router.KNearest(w.queries[0], 3)), "pre-kill");

  // A real kill -9 of shard 2's primary. The router has no idea until the
  // next query's scatter hits the dead socket — mid-query it promotes the
  // standby and the answer stays exact and unflagged.
  const pid_t victim = router.replica_pid(2, router.primary_of(2));
  ASSERT_GT(victim, 0);
  ASSERT_EQ(kill(victim, SIGKILL), 0);

  QueryStats ref1;
  const auto want1 = dep.index->KNearest(w.queries[1], 3, &ref1);
  const ServeResult during = router.KNearest(w.queries[1], 3);
  ExpectSameAnswer(AnswerOf(want1, ref1), ServeAnswer(during),
                   "kill -9 failover");
  EXPECT_GE(during.failovers, 1u);
  EXPECT_TRUE(AnyReplicaAlive(router, 2));
  EXPECT_NE(router.replica_pid(2, router.primary_of(2)), victim);

  // auto_respawn refills the group between queries; the revived process
  // rejoins at the next begin and the group is back to full strength.
  QueryStats ref2;
  const auto want2 = dep.index->KNearest(w.queries[2], 3, &ref2);
  ExpectSameAnswer(AnswerOf(want2, ref2),
                   ServeAnswer(router.KNearest(w.queries[2], 3)),
                   "post-respawn");
  EXPECT_TRUE(router.PingAll());
  for (std::size_t r = 0; r < router.replica_count(); ++r) {
    EXPECT_TRUE(router.replica_alive(2, r)) << "replica " << r;
  }
}

TEST(ServeDistributedTest, SlowPrimaryEvalsAreHedgedToTheStandby) {
  Workload w = MakeWorkload(120, 2, 8700);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = TestServeOptions("dE");
  // Shard 1's primary answers Evals 100ms late — well inside the op
  // timeout, so without hedging the query would simply crawl. With a
  // 10ms hedge delay the router races each such Eval to the standby and
  // takes its (identical) answer; nobody dies, nothing degrades.
  opt.fault_spec = "delay:shard=1,op=eval,replica=0,ms=100";
  opt.hedge_delay_ms = 10;
  opt.auto_respawn = false;
  ServeRouter router(dep.dir.path, opt);

  std::size_t hedged = 0;
  for (const auto& q : w.queries) {
    QueryStats ref;
    const auto want = dep.index->KNearest(q, 3, &ref);
    const ServeResult r = router.KNearest(q, 3);
    ExpectSameAnswer(AnswerOf(want, ref), ServeAnswer(r), "hedged q=" + q);
    EXPECT_EQ(r.failovers, 0u);
    EXPECT_EQ(r.replicas_evicted, 0u);
    hedged += r.hedged_evals;
  }
  EXPECT_GT(hedged, 0u);
  // Hedging is a race, not a verdict: the slow primary keeps its job.
  EXPECT_TRUE(router.replica_alive(1, 0));
  EXPECT_TRUE(router.replica_alive(1, 1));
  EXPECT_EQ(router.primary_of(1), 0u);
}

TEST(ServeDistributedTest, DisagreeingStandbyIsEvictedAndQueryStaysExact) {
  Workload w = MakeWorkload(120, 2, 8800);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = TestServeOptions("dE");
  // Shard 2's *standby* mangles its 3rd visit-pass reply: byte-wrong but
  // CRC-valid, so only the router's replica agreement check can catch
  // it. The primary's reply drives the merge — the answer stays exact —
  // and the corrupt standby is evicted.
  opt.fault_spec = "mangle:shard=2,op=step,nth=3,replica=1";
  opt.auto_respawn = false;
  ServeRouter router(dep.dir.path, opt);

  QueryStats ref;
  const auto want = dep.index->KNearest(w.queries[0], 3, &ref);
  const ServeResult r = router.KNearest(w.queries[0], 3);
  ExpectSameAnswer(AnswerOf(want, ref), ServeAnswer(r), "mangled standby");
  EXPECT_EQ(r.replicas_evicted, 1u);
  EXPECT_EQ(r.failovers, 0u);
  EXPECT_TRUE(router.replica_alive(2, 0));
  EXPECT_FALSE(router.replica_alive(2, 1));
  EXPECT_EQ(router.primary_of(2), 0u);
}

TEST(ServeDistributedTest, AllShardsDeadReturnsAllMissingAscending) {
  Workload w = MakeWorkload(100, 2, 8900);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = TestServeOptions("dE");
  // Every replica of every shard crashes on its first begin: the whole
  // fleet is gone, and every shard is named, ascending. Both paths
  // evaluate their pivots router-side before the begin, so the answer
  // still holds exact pivot incumbents.
  opt.fault_spec = "crash:op=begin,nth=1";
  opt.auto_respawn = false;
  ServeRouter router(dep.dir.path, opt);

  const ServeResult lazy = router.KNearest(w.queries[0], 3);
  EXPECT_TRUE(lazy.partial);
  EXPECT_EQ(lazy.missing_shards, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(lazy.stats.shards_degraded, 4u);
  auto dist = MakeDistance("dE");
  for (const NeighborResult& nb : lazy.neighbors) {
    EXPECT_EQ(nb.distance, dist->Distance(w.queries[0], w.protos[nb.index]));
  }

  // Fresh router (the first one's fleet is dead and stays dead).
  ServeRouter router2(dep.dir.path, opt);
  const auto batch = KNearestBatch(router2, {w.queries[1]}, 3);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_TRUE(batch[0].partial);
  EXPECT_EQ(batch[0].missing_shards, (std::vector<std::size_t>{0, 1, 2, 3}));
  for (const NeighborResult& nb : batch[0].neighbors) {
    EXPECT_EQ(nb.distance, dist->Distance(w.queries[1], w.protos[nb.index]));
  }
}

TEST(ServeDistributedTest, HealthLoopRevivesKilledReplicasInBackground) {
  Workload w = MakeWorkload(100, 2, 9000);
  Deployment dep(w.protos, 2, 6);
  ServeOptions opt = TestServeOptions("dE");
  // Synchronous respawn off: only the background health loop can bring
  // the killed group back.
  opt.auto_respawn = false;
  opt.health_interval_ms = 25;
  ServeRouter router(dep.dir.path, opt);

  QueryStats ref0;
  const auto want0 = dep.index->KNearest(w.queries[0], 3, &ref0);
  ExpectSameAnswer(AnswerOf(want0, ref0),
                   ServeAnswer(router.KNearest(w.queries[0], 3)), "pre-kill");

  for (std::size_t r = 0; r < router.replica_count(); ++r) {
    const pid_t victim = router.replica_pid(1, r);
    ASSERT_GT(victim, 0);
    ASSERT_EQ(kill(victim, SIGKILL), 0);
  }

  // The loop pings (failure detection), reaps, respawns, re-pings. Give
  // it a generous window; the test only needs eventual recovery.
  bool healthy = false;
  for (int i = 0; i < 400 && !healthy; ++i) {
    healthy = router.replica_alive(1, 0) && router.replica_alive(1, 1) &&
              router.PingAll();
    if (!healthy) usleep(20 * 1000);
  }
  EXPECT_TRUE(healthy);
  QueryStats ref1;
  const auto want1 = dep.index->KNearest(w.queries[1], 3, &ref1);
  ExpectSameAnswer(AnswerOf(want1, ref1),
                   ServeAnswer(router.KNearest(w.queries[1], 3)),
                   "post-revival");
}

TEST(ServeDistributedTest, UnreplicatedTierStillServesExactlyAtROne) {
  Workload w = MakeWorkload(100, 3, 9100);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = TestServeOptions("dE");
  opt.replicas = 1;
  ServeRouter router(dep.dir.path, opt);
  ASSERT_EQ(router.replica_count(), 1u);
  for (const auto& q : w.queries) {
    QueryStats ref;
    const auto want = dep.index->KNearest(q, 3, &ref);
    const ServeResult r = router.KNearest(q, 3);
    ExpectSameAnswer(AnswerOf(want, ref), ServeAnswer(r), "R=1 q=" + q);
    EXPECT_EQ(r.failovers, 0u);
    EXPECT_EQ(r.hedged_evals, 0u);
  }
}

TEST(ServeDistributedTest, RefusedPrimaryBeginFailsOverWithoutEvictions) {
  Workload w = MakeWorkload(120, 1, 8850);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = TestServeOptions("dE");
  // Shard 2's *primary* mangles its first lazy-begin reply: CRC-valid, but
  // its survivor count is wrong, so the sweep machine refuses it. The
  // refusal must fall on the primary — the honest standby's reply drives
  // (one failover) and nobody is evicted for disagreeing with garbage.
  opt.fault_spec = "mangle:shard=2,op=begin,nth=1,replica=0";
  opt.auto_respawn = false;
  ServeRouter router(dep.dir.path, opt);

  QueryStats ref;
  const auto want = dep.index->KNearest(w.queries[0], 3, &ref);
  const ServeResult r = router.KNearest(w.queries[0], 3);
  ExpectSameAnswer(AnswerOf(want, ref), ServeAnswer(r),
                   "refused primary begin");
  EXPECT_EQ(r.failovers, 1u);
  EXPECT_EQ(r.replicas_evicted, 0u);
  EXPECT_EQ(router.primary_of(2), 1u);
  EXPECT_FALSE(router.replica_alive(2, 0));
  EXPECT_TRUE(router.replica_alive(2, 1));
}

// --- Driven sweeps: the admission front end's seam --------------------------

/// Hands `jobs` (tagged by position) to DriveSweeps and records each
/// delivery.
class VectorFeed : public SweepFeed {
 public:
  explicit VectorFeed(std::vector<SweepJob> jobs)
      : jobs_(std::move(jobs)), results(jobs_.size()),
        bailed(jobs_.size(), -1) {
    for (std::size_t i = 0; i < jobs_.size(); ++i) jobs_[i].tag = i;
  }
  bool Next(SweepJob* out) override {
    if (next_ == jobs_.size()) return false;
    *out = jobs_[next_++];
    return true;
  }
  bool Finished() override { return next_ == jobs_.size(); }
  void Deliver(std::uint64_t tag, ServeResult res, bool was_bailed) override {
    results[tag] = std::move(res);
    bailed[tag] = was_bailed ? 1 : 0;
  }

 private:
  std::vector<SweepJob> jobs_;
  std::size_t next_ = 0;

 public:
  std::vector<ServeResult> results;
  std::vector<int> bailed;  // -1 = never delivered
};

std::vector<double> PivotRow(const ServeRouter& router, const std::string& q) {
  std::vector<double> row;
  for (const std::string& p : router.pivot_strings()) {
    row.push_back(router.metric().Distance(q, p));
  }
  return row;
}

TEST(ServeDistributedTest, DrivenSweepFailsOverMidSweepInsteadOfBailing) {
  Workload w = MakeWorkload(150, 1, 8500);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = TestServeOptions("dE");
  // Every primary crashes on its 2nd visit pass, inside this one sweep.
  opt.fault_spec = "crash:op=step,nth=2,replica=0";
  opt.auto_respawn = false;
  ServeRouter router(dep.dir.path, opt);

  const std::string& q = w.queries[0];
  const std::vector<double> row = PivotRow(router, q);
  VectorFeed feed({SweepJob{q, 3, row.data(), 0}});
  router.DriveSweeps(feed, 1);
  ASSERT_EQ(feed.bailed[0], 0);
  QueryStats ref;
  std::vector<double> ref_row(dep.index->pivot_count());
  dep.index->ComputePivotRow(q, ref_row.data(), &ref);
  const auto want = dep.index->KNearestWithPivotRow(q, 3, ref_row.data(), &ref);
  ExpectSameAnswer(AnswerOf(want, ref), ServeAnswer(feed.results[0]),
                   "driven failover");
  EXPECT_EQ(feed.results[0].failovers, 4u);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(router.primary_of(s), 1u) << "shard " << s;
  }
}

// --- Satellite: option validation ------------------------------------------

TEST(ServeDistributedTest, InvalidOptionsThrowNamingTheField) {
  Workload w = MakeWorkload(40, 1, 9200);
  Deployment dep(w.protos, 2, 4);
  auto expect_invalid = [&](ServeOptions opt, const std::string& field) {
    try {
      ServeRouter router(dep.dir.path, opt);
      FAIL() << "expected std::invalid_argument for " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << "message '" << e.what() << "' does not name " << field;
    }
  };
  ServeOptions opt = TestServeOptions("dE");
  opt.replicas = 0;
  expect_invalid(opt, "replicas");
  opt = TestServeOptions("dE");
  opt.op_timeout_ms = 0;
  expect_invalid(opt, "op_timeout_ms");
  opt = TestServeOptions("dE");
  opt.query_deadline_ms = -5;
  expect_invalid(opt, "query_deadline_ms");
  opt = TestServeOptions("dE");
  opt.op_retries = -1;
  expect_invalid(opt, "op_retries");
  opt = TestServeOptions("dE");
  opt.backoff_base_ms = -1;
  expect_invalid(opt, "backoff_base_ms");
  opt = TestServeOptions("dE");
  opt.health_interval_ms = -1;
  expect_invalid(opt, "health_interval_ms");
  opt = TestServeOptions("dE");
  opt.distance = "";
  expect_invalid(opt, "distance");
}

// --- Satellite: degraded-mode determinism ----------------------------------

TEST(ServeDistributedTest, DegradedLazyResultsAreDeterministicAcrossRuns) {
  Workload w = MakeWorkload(140, 5, 8000);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = TestServeOptions("dE");
  // A mixed schedule: one crash and one swallowed mutating op. Counted
  // per directive, the schedule is a pure function of the request
  // sequence — so two fresh routers over the same queries must degrade
  // identically, down to the stats.
  opt.fault_spec = "crash:shard=2,op=step,nth=4|drop:shard=0,op=step,nth=6";
  opt.respawn_fault_spec = "";
  auto run = [&]() {
    ServeRouter router(dep.dir.path, opt);
    std::vector<ServeResult> out;
    for (const auto& q : w.queries) out.push_back(router.KNearest(q, 3));
    return out;
  };
  const auto first = run();
  const auto second = run();
  ASSERT_EQ(first.size(), second.size());
  std::size_t partials = 0;
  for (std::size_t i = 0; i < first.size(); ++i) {
    ExpectSameAnswer(ServeAnswer(first[i]), ServeAnswer(second[i]),
                          "lazy run q=" + w.queries[i]);
    partials += first[i].partial ? 1 : 0;
  }
  EXPECT_GT(partials, 0u);  // the schedule really fired
}

TEST(ServeDistributedTest, DegradedBatchResultsAreDeterministicAcrossRuns) {
  Workload w = MakeWorkload(140, 6, 8100);
  Deployment dep(w.protos, 4, 8);
  ServeOptions opt = TestServeOptions("dE");
  opt.fault_spec = "crash:shard=3,op=begin,nth=2";
  auto run = [&]() {
    ServeRouter router(dep.dir.path, opt);
    return KNearestBatch(router, w.queries, 3);
  };
  const auto first = run();
  const auto second = run();
  ASSERT_EQ(first.size(), second.size());
  std::size_t partials = 0;
  for (std::size_t i = 0; i < first.size(); ++i) {
    ExpectSameAnswer(ServeAnswer(first[i]), ServeAnswer(second[i]),
                          "batch run q=" + w.queries[i]);
    partials += first[i].partial ? 1 : 0;
  }
  EXPECT_EQ(partials, 1u);
}

// --- Snapshot-level robustness ---------------------------------------------

TEST(ServeDistributedTest, CorruptShardSnapshotNeverServes) {
  Workload w = MakeWorkload(80, 2, 8200);
  Deployment dep(w.protos, 2, 6);
  // Flip one payload byte in shard 1's index slice: its worker must fail
  // the pre-map checksum pass and answer with errors, degrading the shard
  // — corrupted bytes are never silently merged into results.
  {
    const std::string path = ShardIndexPath(dep.dir.path, 1);
    FILE* f = fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    fseek(f, 200, SEEK_SET);
    int c = fgetc(f);
    fseek(f, 200, SEEK_SET);
    fputc(c ^ 0x40, f);
    fclose(f);
  }
  ServeOptions opt = TestServeOptions("dE");
  opt.auto_respawn = false;
  ServeRouter router(dep.dir.path, opt);
  const ServeResult r = router.Nearest(w.queries[0]);
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.missing_shards, std::vector<std::size_t>{1});
}

TEST(ServeDistributedTest, ExecFormWorkerBinaryServesIdentically) {
  // The fork+exec deployment form (ServeOptions::worker_binary) must be
  // the same protocol peer as the default in-process fork. The built
  // `cned_shard_worker` sits next to this test binary.
  std::error_code ec;
  const auto self = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) GTEST_SKIP() << "cannot resolve own binary path";
  const auto bin = self.parent_path() / "cned_shard_worker";
  if (!std::filesystem::exists(bin)) {
    GTEST_SKIP() << "cned_shard_worker not built";
  }
  Workload w = MakeWorkload(100, 4, 8300);
  Deployment dep(w.protos, 3, 8);
  ServeOptions opt = TestServeOptions("dE");
  opt.worker_binary = bin.string();
  ServeRouter router(dep.dir.path, opt);
  for (const auto& q : w.queries) {
    QueryStats ref;
    const auto want = dep.index->KNearest(q, 3, &ref);
    ExpectSameAnswer(AnswerOf(want, ref), ServeAnswer(router.KNearest(q, 3)),
                     "exec q=" + q);
  }
}

TEST(ServeDistributedTest, RouterRejectsMissingManifest) {
  TempDir empty("cned_serve_");
  EXPECT_THROW(ServeRouter(empty.path, TestServeOptions("dE")), std::exception);
}

// --- Satellite: retry waits are gated by the query deadline -----------------

TEST(ServeDistributedTest, DeadlineGatesRetryWaitsToQueryBudget) {
  // Every begin is swallowed and the per-op timeout (4s) dwarfs the query
  // deadline (200ms). SendRecv used to check the deadline only *after* a
  // full op-timeout recv window and still slept + resent once the budget
  // was gone, so this query burned multiple op timeouts past its deadline.
  // The fix caps every recv window by the remaining budget and refuses to
  // back off or resend once it is spent: the query must come back (flagged
  // partial) in deadline-order time, not op-timeout-order time.
  Workload w = MakeWorkload(80, 1, 9300);
  Deployment dep(w.protos, 2, 6);
  ServeOptions opt = TestServeOptions("dE");
  opt.fault_spec = "drop:op=begin";
  opt.op_timeout_ms = 4000;
  opt.op_retries = 2;
  opt.backoff_base_ms = 0;
  opt.query_deadline_ms = 200;
  opt.auto_respawn = false;
  ServeRouter router(dep.dir.path, opt);

  const auto t0 = std::chrono::steady_clock::now();
  const ServeResult r = router.KNearest(w.queries[0], 3);
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.missing_shards.size(), 2u);
  // Generous slop for CI, still an order of magnitude under one op timeout.
  EXPECT_LT(elapsed_ms, 1500) << "deadline did not gate the retry waits";
}

// --- The mutable tier over the wire -----------------------------------------

/// Distance-exactness oracle for a mutated deployment: the same contract
/// the flat mutable tier pins (tests/mutable_laesa_test.cc) — exact
/// distance profile rank for rank vs brute force over the live map, only
/// live ids, reported distances true, no duplicates. Tie winners follow
/// sweep order, so ids are not pinned on tied ranks.
void ExpectServesLiveOracle(const ServeResult& got,
                            const std::map<std::uint64_t, std::string>& live,
                            const StringDistance& dist, const std::string& q,
                            std::size_t k, const std::string& ctx) {
  EXPECT_FALSE(got.partial) << ctx;
  std::vector<NeighborResult> want;
  for (const auto& [id, s] : live) {
    want.push_back({static_cast<std::size_t>(id), dist.Distance(q, s)});
  }
  std::sort(want.begin(), want.end(), NeighborLess);
  if (want.size() > k) want.resize(k);
  ASSERT_EQ(got.neighbors.size(), want.size()) << ctx;
  std::vector<std::size_t> seen;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const NeighborResult& nb = got.neighbors[i];
    EXPECT_EQ(nb.distance, want[i].distance) << ctx << " rank " << i;
    const auto it = live.find(nb.index);
    ASSERT_NE(it, live.end())
        << ctx << " rank " << i << " returned dead/unknown id " << nb.index;
    EXPECT_EQ(nb.distance, dist.Distance(q, it->second)) << ctx << " rank "
                                                         << i;
    EXPECT_EQ(std::count(seen.begin(), seen.end(), nb.index), 0)
        << ctx << " duplicate id " << nb.index;
    seen.push_back(nb.index);
  }
}

TEST(ServeDistributedTest, MutationsServeExactlyOnBothPathsReplicated) {
  Workload w = MakeWorkload(120, 5, 9400);
  Deployment dep(w.protos, 4, 8);
  ServeRouter router(dep.dir.path, TestServeOptions("dE"));  // default R=2
  auto dist = MakeDistance("dE");

  std::map<std::uint64_t, std::string> live;
  for (std::size_t i = 0; i < w.protos.size(); ++i) live[i] = w.protos[i];

  // Inserts land in per-shard deltas, round-robin by id.
  for (int i = 0; i < 10; ++i) {
    const std::string s = w.protos[i * 7] + "+" + std::to_string(i);
    const std::uint64_t id = router.Insert(s);
    EXPECT_EQ(id, w.protos.size() + i);
    live[id] = s;
  }
  // Insert-only: the base stays unmasked, only the delta phase runs.
  for (const auto& q : w.queries) {
    ExpectServesLiveOracle(router.KNearest(q, 5), live, *dist, q, 5,
                           "delta-only lazy q=" + q);
  }

  // Removes: base ids (0 is a shard pivot), plus one delta id — with dedup
  // and unknown-id rejection.
  for (const std::uint64_t id :
       {std::uint64_t{0}, std::uint64_t{5}, std::uint64_t{61},
        std::uint64_t{w.protos.size() + 2}}) {
    EXPECT_TRUE(router.Remove(id)) << id;
    live.erase(id);
  }
  EXPECT_FALSE(router.Remove(0)) << "double remove must dedup";
  EXPECT_FALSE(router.Remove(w.protos.size() + 1000)) << "unknown id";
  EXPECT_EQ(router.live_size(), live.size());
  EXPECT_EQ(router.next_insert_id(), w.protos.size() + 10);

  for (const auto& q : w.queries) {
    // Masked lazy path (tombstoned base + delta)...
    ExpectServesLiveOracle(router.KNearest(q, 5), live, *dist, q, 5,
                           "masked lazy q=" + q);
    // ...and the top-1 special case.
    ExpectServesLiveOracle(router.Nearest(q), live, *dist, q, 1,
                           "masked nearest q=" + q);
  }
  // The pivot-row path masks too — including the removed pivot id 0, which
  // must be skipped as a seed but never returned.
  const auto batch = KNearestBatch(router, w.queries, 5);
  ASSERT_EQ(batch.size(), w.queries.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ExpectServesLiveOracle(batch[i], live, *dist, w.queries[i], 5,
                           "masked row q=" + w.queries[i]);
  }
  EXPECT_TRUE(router.PingAll());
}

TEST(ServeDistributedTest, DrivenSweepsServeAMutatedWorldInsteadOfBailing) {
  Workload w = MakeWorkload(120, 4, 9450);
  Deployment dep(w.protos, 4, 8);
  ServeRouter router(dep.dir.path, TestServeOptions("dE"));
  auto dist = MakeDistance("dE");

  std::map<std::uint64_t, std::string> live;
  for (std::size_t i = 0; i < w.protos.size(); ++i) live[i] = w.protos[i];
  const std::string inserted = w.protos[3] + "+driven";
  live[router.Insert(inserted)] = inserted;
  ASSERT_TRUE(router.Remove(0));  // a base pivot
  live.erase(0);

  // Row and lazy jobs over the queries plus the inserted string, in one
  // wave: the tombstone and the delta phase ride the driven sweeps.
  std::vector<std::string> queries = w.queries;
  queries.push_back(inserted);
  std::vector<std::vector<double>> rows;
  for (const std::string& q : queries) rows.push_back(PivotRow(router, q));
  std::vector<SweepJob> jobs;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    jobs.push_back(SweepJob{queries[i], 4, rows[i].data(), 0});
    jobs.push_back(SweepJob{queries[i], 4, nullptr, 0});
  }
  VectorFeed feed(jobs);
  router.DriveSweeps(feed, 4);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::string& q = queries[j / 2];
    const std::string ctx =
        std::string(j % 2 == 0 ? "driven row" : "driven lazy") + " q=" + q;
    ASSERT_EQ(feed.bailed[j], 0) << ctx;
    ExpectServesLiveOracle(feed.results[j], live, *dist, q, 4, ctx);
  }
}

TEST(ServeDistributedTest, MutationsServeExactlyAtROne) {
  Workload w = MakeWorkload(80, 4, 9500);
  Deployment dep(w.protos, 2, 6);
  ServeOptions opt = TestServeOptions("dE");
  opt.replicas = 1;
  ServeRouter router(dep.dir.path, opt);
  auto dist = MakeDistance("dE");

  std::map<std::uint64_t, std::string> live;
  for (std::size_t i = 0; i < w.protos.size(); ++i) live[i] = w.protos[i];
  for (int i = 0; i < 6; ++i) {
    const std::string s = w.protos[i * 5] + "~" + std::to_string(i);
    live[router.Insert(s)] = s;
  }
  for (const std::uint64_t id : {std::uint64_t{3}, std::uint64_t{40},
                                 std::uint64_t{w.protos.size()}}) {
    ASSERT_TRUE(router.Remove(id));
    live.erase(id);
  }
  EXPECT_EQ(router.live_size(), live.size());
  for (const auto& q : w.queries) {
    ExpectServesLiveOracle(router.KNearest(q, 4), live, *dist, q, 4,
                           "R=1 lazy q=" + q);
  }
  const auto batch = KNearestBatch(router, w.queries, 4);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ExpectServesLiveOracle(batch[i], live, *dist, w.queries[i], 4,
                           "R=1 row q=" + w.queries[i]);
  }
}

TEST(ServeDistributedTest, RespawnedReplicaReplaysJournalBeforeRejoining) {
  Workload w = MakeWorkload(100, 4, 9600);
  Deployment dep(w.protos, 2, 6);
  ServeRouter router(dep.dir.path, TestServeOptions("dE"));
  auto dist = MakeDistance("dE");

  std::map<std::uint64_t, std::string> live;
  for (std::size_t i = 0; i < w.protos.size(); ++i) live[i] = w.protos[i];
  for (int i = 0; i < 8; ++i) {
    const std::string s = w.protos[i * 9] + "#" + std::to_string(i);
    live[router.Insert(s)] = s;
  }
  ASSERT_TRUE(router.Remove(7));
  live.erase(7);

  // Kill shard 0's standby. It missed nothing yet — but the next mutation
  // only reaches the survivors, so the journal is now the sole record.
  const pid_t standby = router.replica_pid(0, 1);
  ASSERT_GT(standby, 0);
  ASSERT_EQ(kill(standby, SIGKILL), 0);
  const std::string after_kill = w.protos[3] + "#late";
  live[router.Insert(after_kill)] = after_kill;
  ASSERT_TRUE(router.Remove(11));
  live.erase(11);

  // A query routes around the corpse; the respawn then must replay the
  // whole journal into the fresh process before it rejoins the group.
  ExpectServesLiveOracle(router.KNearest(w.queries[0], 4), live, *dist,
                         w.queries[0], 4, "around the corpse");
  router.RespawnDead();
  ASSERT_TRUE(router.PingAll());

  // Promote the replayed replica the hard way: kill the primary. If the
  // replay was incomplete the standby would now serve a stale world —
  // missing #late, resurrecting id 11 — and the oracle check would catch
  // either.
  const pid_t primary = router.replica_pid(0, 0);
  ASSERT_GT(primary, 0);
  ASSERT_EQ(kill(primary, SIGKILL), 0);
  for (const auto& q : w.queries) {
    ExpectServesLiveOracle(router.KNearest(q, 4), live, *dist, q, 4,
                           "replayed standby q=" + q);
  }
  EXPECT_EQ(router.live_size(), live.size());
}

TEST(ServeDistributedTest, MutatedTierStaysExactAcrossPrecisionsAndKernels) {
  // The tombstone mask writes +inf into the lower-bound slab *after*
  // dequantization, so the admissible-rounding guarantee must survive at
  // every table precision, under every compiled kernel — now over the
  // wire. Workers are forked, so the active kernel is set before the
  // router spawns them.
  Workload w = MakeWorkload(60, 3, 9700);
  auto dist = MakeDistance("dE");
  const std::string saved_kernel = ActiveSweepKernels().name;
  for (const TablePrecision precision :
       {TablePrecision::kF32, TablePrecision::kU8}) {
    Deployment dep(w.protos, 2, 6, precision);
    for (const SweepKernels* kern : AvailableSweepKernels()) {
      ASSERT_TRUE(SetActiveSweepKernels(kern->name));
      ServeRouter router(dep.dir.path, TestServeOptions("dE"));
      const std::string ctx = std::string("precision ") +
                              std::to_string(static_cast<int>(precision)) +
                              " kernel " + kern->name;

      std::map<std::uint64_t, std::string> live;
      for (std::size_t i = 0; i < w.protos.size(); ++i) live[i] = w.protos[i];
      for (int i = 0; i < 4; ++i) {
        const std::string s = w.protos[i * 11] + "^" + std::to_string(i);
        live[router.Insert(s)] = s;
      }
      for (const std::uint64_t id : {std::uint64_t{0}, std::uint64_t{13},
                                     std::uint64_t{w.protos.size() + 1}}) {
        ASSERT_TRUE(router.Remove(id)) << ctx;
        live.erase(id);
      }
      for (const auto& q : w.queries) {
        ExpectServesLiveOracle(router.KNearest(q, 3), live, *dist, q, 3,
                               ctx + " lazy q=" + q);
      }
      const auto batch = KNearestBatch(router, {w.queries[0]}, 3);
      ASSERT_EQ(batch.size(), 1u);
      ExpectServesLiveOracle(batch[0], live, *dist, w.queries[0], 3,
                             ctx + " row");
    }
  }
  ASSERT_TRUE(SetActiveSweepKernels(saved_kernel));
}

}  // namespace
}  // namespace cned
