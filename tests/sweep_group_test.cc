// The row sweep over a group of queries: `Laesa::KNearestWithPivotRows`
// applies the pivot rows of up to kMaxRowQueries queries in one pass over
// each segment's table (`update_lower_rows`, search/sweep_kernel.h), and
// the batch engine hands it groups of consecutive queries. Every query must
// still answer exactly as the per-query `KNearestWithPivotRow` does:
// neighbours, distances, every `QueryStats` field and the per-segment
// counters, for every group size (including a short tail group), segment
// count, table precision and forced kernel variant.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datasets/perturb.h"
#include "datasets/prototype_store.h"
#include "datasets/sharded_prototype_store.h"
#include "distances/registry.h"
#include "search/batch_engine.h"
#include "search/laesa.h"
#include "search/sweep_kernel.h"
#include "search/table_quant.h"
#include "strings/alphabet.h"
#include "tests/snapshot_test_util.h"

namespace cned {
namespace {

/// Restores the startup-active kernel variant when a test is done forcing.
class KernelGuard {
 public:
  KernelGuard() : saved_(ActiveSweepKernels().name) {}
  ~KernelGuard() { SetActiveSweepKernels(saved_); }

 private:
  std::string saved_;
};

constexpr TablePrecision kPrecisions[] = {
    TablePrecision::kF64, TablePrecision::kF32, TablePrecision::kF16,
    TablePrecision::kU8};

void ExpectSameStats(const QueryStats& want, const QueryStats& got,
                     const std::string& ctx) {
  EXPECT_EQ(want.distance_computations, got.distance_computations) << ctx;
  EXPECT_EQ(want.bounded_abandons, got.bounded_abandons) << ctx;
  EXPECT_EQ(want.pivot_computations, got.pivot_computations) << ctx;
  EXPECT_EQ(want.shards_degraded, got.shards_degraded) << ctx;
}

void ExpectSameNeighbors(const std::vector<NeighborResult>& want,
                         const std::vector<NeighborResult>& got,
                         const std::string& ctx) {
  ASSERT_EQ(want.size(), got.size()) << ctx;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].index, got[i].index) << ctx << " rank " << i;
    EXPECT_EQ(want[i].distance, got[i].distance) << ctx << " rank " << i;
  }
}

/// Seven queries: perturbed words, one of them twice (two slabs of one
/// group hold the same bounds) and one a prototype itself (distance 0).
std::vector<std::string> GroupQueries(const std::vector<std::string>& words,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> queries =
      MakeQueries(words, 5, 2, Alphabet::Latin(), rng);
  queries.push_back(queries[1]);
  queries.push_back(words[17]);
  return queries;
}

/// One index per segment count over the same words.
struct Index {
  PrototypeStore flat;
  ShardedPrototypeStore sharded;
  std::unique_ptr<Laesa> laesa;
};

std::unique_ptr<Index> MakeIndex(const std::vector<std::string>& words,
                                 std::size_t shards, const char* distance,
                                 TablePrecision precision) {
  auto out = std::make_unique<Index>();
  if (shards == 1) {
    out->flat = PrototypeStore(words);
    out->laesa = std::make_unique<Laesa>(out->flat, MakeDistance(distance), 6,
                                         precision);
  } else {
    out->sharded = ShardedPrototypeStore(words, shards);
    out->laesa = std::make_unique<Laesa>(out->sharded, MakeDistance(distance),
                                         6, precision);
  }
  return out;
}

TEST(SweepGroupTest, GroupEntryMatchesPerQueryRowSweep) {
  KernelGuard guard;
  const std::vector<std::string> words = Words(160, 20261019);
  const std::vector<std::string> queries = GroupQueries(words, 3401);
  const std::size_t nq = queries.size();
  for (TablePrecision precision : kPrecisions) {
    for (std::size_t shards : {1u, 3u}) {
      const auto index = MakeIndex(words, shards, "dC", precision);
      const Laesa& laesa = *index->laesa;
      std::vector<std::vector<double>> rows(nq);
      for (std::size_t i = 0; i < nq; ++i) {
        rows[i].resize(laesa.pivot_count());
        laesa.ComputePivotRow(queries[i], rows[i].data());
      }
      for (const char* kernel : {"scalar", "avx2"}) {
        if (!SetActiveSweepKernels(kernel)) continue;  // not on this CPU
        for (std::size_t k : {1u, 5u}) {
          std::vector<std::vector<NeighborResult>> want(nq);
          std::vector<QueryStats> want_stats(nq);
          std::vector<QueryStats> want_shards(nq * shards);
          for (std::size_t i = 0; i < nq; ++i) {
            want[i] = laesa.KNearestWithPivotRow(queries[i], k,
                                                 rows[i].data(), &want_stats[i],
                                                 &want_shards[i * shards]);
          }
          for (std::size_t size : {1u, 2u, 3u, 4u, 7u}) {
            std::vector<std::vector<NeighborResult>> got(nq);
            std::vector<QueryStats> got_stats(nq);
            std::vector<QueryStats> got_shards(nq * shards);
            std::vector<PivotRowQuery> group(nq);
            for (std::size_t i = 0; i < nq; ++i) {
              group[i] = {queries[i], rows[i].data(), &got_stats[i]};
            }
            for (std::size_t lo = 0; lo < nq; lo += size) {
              const std::size_t count = std::min(size, nq - lo);
              laesa.KNearestWithPivotRows(&group[lo], count, k, &got[lo],
                                          &got_shards[lo * shards]);
            }
            for (std::size_t i = 0; i < nq; ++i) {
              const std::string ctx =
                  std::string(TablePrecisionName(precision)) +
                  " S=" + std::to_string(shards) + " " + kernel +
                  " k=" + std::to_string(k) +
                  " group=" + std::to_string(size) + " q=" + queries[i];
              ExpectSameNeighbors(want[i], got[i], ctx);
              ExpectSameStats(want_stats[i], got_stats[i], ctx);
              for (std::size_t g = 0; g < shards; ++g) {
                ExpectSameStats(want_shards[i * shards + g],
                                got_shards[i * shards + g],
                                ctx + " segment " + std::to_string(g));
              }
            }
          }
          // The interface's form, without per-segment counters.
          std::vector<std::vector<NeighborResult>> got(nq);
          std::vector<PivotRowQuery> group(nq);
          for (std::size_t i = 0; i < nq; ++i) {
            group[i] = {queries[i], rows[i].data(), nullptr};
          }
          static_cast<const PivotStageSearcher&>(laesa).KNearestWithPivotRows(
              group.data(), nq, k, got.data());
          for (std::size_t i = 0; i < nq; ++i) {
            ExpectSameNeighbors(want[i], got[i],
                                std::string(kernel) + " interface q=" +
                                    queries[i]);
          }
        }
      }
    }
  }
}

// The batch engine's pivot pipeline runs its sweeps in groups of
// consecutive queries; `Nearest` with per-shard stats and `KNearest` must
// still equal the per-query row sweeps, the merged stats their sums plus
// the deduplicated pivot rows, at every thread count and so every group
// size.
TEST(SweepGroupTest, BatchEngineGroupsMatchPerQueryRowSweep) {
  KernelGuard guard;
  const std::vector<std::string> words = Words(140, 20261020);
  std::vector<std::string> queries = GroupQueries(words, 3402);
  const std::vector<std::string> more = GroupQueries(words, 3403);
  queries.insert(queries.end(), more.begin(), more.end());  // 14: a tail of 2
  const PrototypeStore batch(queries);
  const std::size_t nq = queries.size();
  for (TablePrecision precision : kPrecisions) {
    for (std::size_t shards : {1u, 3u}) {
      const auto index = MakeIndex(words, shards, "dC", precision);
      const Laesa& laesa = *index->laesa;
      const std::size_t np = laesa.pivot_count();
      std::size_t unique = 0;
      for (std::size_t i = 0; i < nq; ++i) {
        unique += std::find(queries.begin(), queries.begin() + i,
                            queries[i]) == queries.begin() + i;
      }
      for (const char* kernel : {"scalar", "avx2"}) {
        if (!SetActiveSweepKernels(kernel)) continue;
        for (std::size_t k : {1u, 5u}) {
          std::vector<std::vector<NeighborResult>> want(nq);
          QueryStats want_stats;
          std::vector<QueryStats> want_shards(shards);
          for (std::size_t i = 0; i < nq; ++i) {
            std::vector<double> row(np);
            laesa.ComputePivotRow(queries[i], row.data());
            std::vector<QueryStats> per_shard(shards);
            want[i] = laesa.KNearestWithPivotRow(queries[i], k, row.data(),
                                                 &want_stats, per_shard.data());
            for (std::size_t g = 0; g < shards; ++g) {
              want_shards[g] += per_shard[g];
            }
          }
          want_stats.distance_computations += unique * np;
          want_stats.pivot_computations += unique * np;
          // 14 queries on 1 and 3 threads run in groups of 4 (a tail of
          // 2), on 5 in groups of 2 and on 8 in groups of 1.
          for (std::size_t threads : {1u, 3u, 5u, 8u}) {
            BatchQueryEngine::Options opt;
            opt.threads = threads;
            opt.pivot_stage = true;
            const BatchQueryEngine engine(laesa, opt);
            const std::string ctx =
                std::string(TablePrecisionName(precision)) +
                " S=" + std::to_string(shards) + " " + kernel +
                " k=" + std::to_string(k) +
                " threads=" + std::to_string(threads);
            QueryStats got_stats;
            const auto got = engine.KNearest(batch, k, &got_stats);
            ASSERT_EQ(got.size(), nq) << ctx;
            for (std::size_t i = 0; i < nq; ++i) {
              ExpectSameNeighbors(want[i], got[i], ctx + " q=" + queries[i]);
            }
            ExpectSameStats(want_stats, got_stats, ctx);
            if (k != 1) continue;
            QueryStats nearest_stats;
            std::vector<QueryStats> got_shards;
            const auto nearest =
                engine.Nearest(batch, &nearest_stats, &got_shards);
            ASSERT_EQ(nearest.size(), nq) << ctx;
            for (std::size_t i = 0; i < nq; ++i) {
              EXPECT_EQ(want[i].at(0).index, nearest[i].index) << ctx;
              EXPECT_EQ(want[i].at(0).distance, nearest[i].distance) << ctx;
            }
            ExpectSameStats(want_stats, nearest_stats, ctx + " Nearest");
            ASSERT_EQ(got_shards.size(), shards) << ctx;
            for (std::size_t g = 0; g < shards; ++g) {
              ExpectSameStats(want_shards[g], got_shards[g],
                              ctx + " Nearest segment " + std::to_string(g));
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace cned
