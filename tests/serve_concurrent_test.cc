// The concurrent serving tier's contract under real thread-level
// concurrency, pinned over forked worker processes:
//
//   1. Concurrent = bit-identical. Eight closed-loop client threads
//      hammering one ServeEngine — whose persistent driver multiplexes
//      all their sweeps over the shared worker connections — get answers
//      (neighbours, distances AND QueryStats) bit-identical to the
//      in-process sharded Laesa pivot-row path, even while injected
//      faults kill and mangle standby replicas mid-query.
//   2. Mixed ops never flag while any replica survives. Concurrent
//      Nearest/KNearest/Insert/Remove (mutations send the driver's sweeps
//      through the delta phase and make writers contend for the world
//      lock it holds shared) produce no partial, no shed, and no missing
//      shards, because every injected fault targets replica=1 only —
//      each group always keeps a live member.
//   3. The mutations land: after the storm quiesces, every inserted and
//      not-removed string is found at distance 0, and every removed one
//      is not.
//   4. Callers without the engine each drive their own sweeps over the
//      shared connections and still get bit-identical answers.
//
// This test is wired into the ASan and TSan CI jobs: it is the one that
// races the admission queue, the sweep driver's world-lock hold, the
// per-group failover locks, and the connection reactor against each
// other.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "datasets/dictionary_gen.h"
#include "datasets/perturb.h"
#include "datasets/sharded_prototype_store.h"
#include "distances/registry.h"
#include "search/laesa.h"
#include "serve/engine.h"
#include "serve/router.h"
#include "serve/shard_snapshot.h"
#include "tests/snapshot_test_util.h"

namespace cned {
namespace {

constexpr std::size_t kThreads = 8;

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

/// Results may interleave with concurrent mutations, so only invariants
/// hold: never flagged, never shed, at most `k` neighbours, sorted finite
/// distances. Returns one message per violation, prefixed with `context`;
/// touches no gtest state, so worker threads may call it.
std::vector<std::string> WellFormedFailures(const ServeResult& res,
                                            std::size_t k,
                                            const std::string& context) {
  std::vector<std::string> out;
  if (res.shed) out.push_back(context + " shed");
  if (res.partial) out.push_back(context + " partial");
  if (!res.missing_shards.empty()) out.push_back(context + " missing shards");
  if (res.neighbors.size() > k) {
    out.push_back(context + " " + std::to_string(res.neighbors.size()) +
                  " neighbours for k=" + std::to_string(k));
  }
  for (std::size_t i = 0; i < res.neighbors.size(); ++i) {
    const std::string at = context + " i=" + std::to_string(i);
    if (!std::isfinite(res.neighbors[i].distance)) {
      out.push_back(at + " non-finite distance");
    }
    if (i > 0 &&
        res.neighbors[i].distance < res.neighbors[i - 1].distance) {
      out.push_back(at + " unsorted neighbours");
    }
  }
  return out;
}

TEST(ServeConcurrentTest, EightClientsStayExactWhileStandbysDieAndMangle) {
  const Workload w = MakeWorkload(300, 16, 9100);
  ShardedPrototypeStore store(w.protos, 4);
  Laesa index(store, MakeDistance("dE"), 8);
  TempDir dir("cned_conc_");
  SaveServingSnapshot(index, dir.path);

  ServeOptions opt;
  opt.distance = "dE";
  opt.replicas = 2;
  opt.op_timeout_ms = 2000;  // TSan headroom
  opt.op_retries = 2;
  opt.backoff_base_ms = 2;
  opt.auto_respawn = true;
  // Standbys only (replica=1): a crash mid-step, then a mangled step
  // reply (state-machine disagreement, standby evicted). Every group
  // keeps its primary, so nothing may ever flag — and nothing may
  // perturb a single reported bit.
  opt.fault_spec =
      "crash:shard=1,op=step,nth=25,replica=1|"
      "mangle:shard=2,op=step,nth=40,replica=1|"
      "crash:shard=0,op=step,nth=90,replica=1";
  ServeRouter router(dir.path, opt);

  ServeEngineOptions eopt;
  eopt.max_batch = 4;
  eopt.max_inflight = 2 * kThreads;
  eopt.max_queue = 256;
  eopt.admission_timeout_ms = 60000;  // exactness phase must never shed
  ServeEngine engine(router, eopt);

  // In-process references, computed up front (the row path, as the
  // engine's pivot stage computes it).
  const std::size_t k = 5;
  std::vector<std::vector<NeighborResult>> want(w.queries.size());
  std::vector<QueryStats> want_stats(w.queries.size());
  std::vector<double> row(index.pivot_count());
  for (std::size_t i = 0; i < w.queries.size(); ++i) {
    index.ComputePivotRow(w.queries[i], row.data(), &want_stats[i]);
    want[i] =
        index.KNearestWithPivotRow(w.queries[i], k, row.data(), &want_stats[i]);
  }

  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < 3; ++round) {
        for (std::size_t i = 0; i < w.queries.size(); ++i) {
          const std::size_t qi = (i + t * 3) % w.queries.size();
          const ServeResult got = engine.KNearest(w.queries[qi], k);
          bool same = !got.shed && !got.partial &&
                      got.missing_shards.empty() &&
                      got.neighbors.size() == want[qi].size() &&
                      got.stats == want_stats[qi];
          for (std::size_t j = 0; same && j < want[qi].size(); ++j) {
            same = got.neighbors[j].index == want[qi][j].index &&
                   got.neighbors[j].distance == want[qi][j].distance;
          }
          if (!same) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u)
      << "concurrent results diverged from in-process sharded Laesa";
  EXPECT_GE(engine.batched_queries(), kThreads * 3 * w.queries.size());
  EXPECT_EQ(engine.shed_queries(), 0u);
}

TEST(ServeConcurrentTest, CallersDrivingTheirOwnSweepsStayExact) {
  // No engine: every client thread runs ServeRouter::KNearest (lazy) and
  // KNearestWithRow (pivot row), i.e. its own sweep driver, over the same
  // worker connections — a driver that drains a connection completes the
  // other drivers' legs and must wake them through their wake pipes.
  const Workload w = MakeWorkload(200, 8, 9300);
  ShardedPrototypeStore store(w.protos, 4);
  Laesa index(store, MakeDistance("dE"), 8);
  TempDir dir("cned_conc_");
  SaveServingSnapshot(index, dir.path);

  ServeOptions opt;
  opt.distance = "dE";
  opt.replicas = 2;
  opt.op_timeout_ms = 2000;  // TSan headroom
  opt.backoff_base_ms = 2;
  // A standby crash mid-step: the group keeps its primary, so nothing may
  // flag or perturb a bit.
  opt.fault_spec = "crash:shard=2,op=step,nth=40,replica=1";
  ServeRouter router(dir.path, opt);

  const std::size_t k = 3;
  std::vector<std::vector<NeighborResult>> lazy_want(w.queries.size());
  std::vector<QueryStats> lazy_stats(w.queries.size());
  std::vector<std::vector<double>> rows(w.queries.size());
  std::vector<std::vector<NeighborResult>> row_want(w.queries.size());
  std::vector<QueryStats> row_stats(w.queries.size());
  for (std::size_t i = 0; i < w.queries.size(); ++i) {
    lazy_want[i] = index.KNearest(w.queries[i], k, &lazy_stats[i]);
    rows[i].resize(index.pivot_count());
    index.ComputePivotRow(w.queries[i], rows[i].data(), &row_stats[i]);
    row_want[i] = index.KNearestWithPivotRow(w.queries[i], k, rows[i].data(),
                                             &row_stats[i]);
  }
  const auto same = [](const ServeResult& got,
                       const std::vector<NeighborResult>& want,
                       const QueryStats& stats) {
    bool ok = !got.partial && got.missing_shards.empty() &&
              got.neighbors.size() == want.size() && got.stats == stats;
    for (std::size_t j = 0; ok && j < want.size(); ++j) {
      ok = got.neighbors[j].index == want[j].index &&
           got.neighbors[j].distance == want[j].distance;
    }
    return ok;
  };

  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < 2 * w.queries.size(); ++i) {
        const std::size_t qi = (i + t) % w.queries.size();
        const bool ok =
            (i + t) % 2 == 0
                ? same(router.KNearest(w.queries[qi], k), lazy_want[qi],
                       lazy_stats[qi])
                : same(router.KNearestWithRow(w.queries[qi], k, rows[qi]),
                       row_want[qi], row_stats[qi]);
        if (!ok) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u)
      << "concurrent callers diverged from in-process sharded Laesa";
}

TEST(ServeConcurrentTest, MixedQueryInsertRemoveStormNeverFlags) {
  const Workload w = MakeWorkload(300, 12, 9200);
  ShardedPrototypeStore store(w.protos, 4);
  Laesa index(store, MakeDistance("dE"), 8);
  TempDir dir("cned_conc_");
  SaveServingSnapshot(index, dir.path);

  ServeOptions opt;
  opt.distance = "dE";
  opt.replicas = 2;
  opt.op_timeout_ms = 2000;
  opt.op_retries = 2;
  opt.backoff_base_ms = 2;
  opt.auto_respawn = true;
  // Standby-only churn while mutations fly: a crash, a mangle, and a
  // recurring slow primary eval (every 97th) to keep the hedging path
  // hot. Groups always keep a live member, so nothing may flag.
  opt.fault_spec =
      "crash:shard=3,op=step,nth=30,replica=1|"
      "mangle:shard=1,op=step,nth=55,replica=1|"
      "delay:shard=2,op=eval,replica=0,ms=30,every=97";
  ServeRouter router(dir.path, opt);

  ServeEngineOptions eopt;
  eopt.max_batch = 4;
  eopt.max_inflight = 2 * kThreads;
  eopt.max_queue = 256;
  eopt.admission_timeout_ms = 60000;
  ServeEngine engine(router, eopt);

  // Each thread interleaves queries with inserting its own unique
  // strings and removing every second one of them. Mutations take the
  // world lock exclusive — the announced-writer backoff in the sweep
  // driver is what keeps them from starving behind its shared hold.
  std::mutex failures_mu;
  std::vector<std::string> failures;
  std::vector<std::vector<std::pair<std::uint64_t, std::string>>> kept(
      kThreads);
  std::vector<std::vector<std::string>> removed(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < 10; ++i) {
        const std::string& q = w.queries[(t + i) % w.queries.size()];
        const std::size_t kk = (i % 2 == 0) ? 1 : 4;
        const ServeResult res = i % 2 == 0 ? engine.Nearest(q)
                                           : engine.KNearest(q, kk);
        // EXPECT_* is not thread-safe; collect and assert on the main
        // thread after the join.
        const std::vector<std::string> bad = WellFormedFailures(
            res, kk, "t=" + std::to_string(t) + " i=" + std::to_string(i));
        if (!bad.empty()) {
          std::lock_guard<std::mutex> lock(failures_mu);
          failures.insert(failures.end(), bad.begin(), bad.end());
        }
        if (i % 3 == 0) {
          const std::string s = "qz" + std::to_string(t) + "ws" +
                                std::to_string(i) + "xv";
          const std::uint64_t id = router.Insert(s);
          if (i % 6 == 0) {
            kept[t].emplace_back(id, s);
          } else {
            router.Remove(id);
            removed[t].push_back(s);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const std::string& f : failures) ADD_FAILURE() << f;

  // Quiesced: every surviving insert is served (distance 0, its own id),
  // every removed one is gone (the synthetic strings are nowhere near
  // the dictionary, so distance 0 can only be the string itself).
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (const auto& [id, s] : kept[t]) {
      const ServeResult res = engine.Nearest(s);
      ASSERT_EQ(res.neighbors.size(), 1u) << s;
      EXPECT_EQ(res.neighbors[0].distance, 0.0) << s;
      EXPECT_EQ(res.neighbors[0].index, id) << s;
    }
    for (const std::string& s : removed[t]) {
      const ServeResult res = engine.Nearest(s);
      ASSERT_EQ(res.neighbors.size(), 1u) << s;
      EXPECT_GT(res.neighbors[0].distance, 0.0) << s;
    }
  }
}

}  // namespace
}  // namespace cned
