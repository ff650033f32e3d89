#include "search/batch_engine.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "common/parallel.h"
#include "search/laesa.h"
#include "search/pivot_stage.h"
#include "search/sweep_kernel.h"

namespace cned {
namespace {

/// Queries per block of the stage-1 pivot pass: the cache-tile height.
constexpr std::size_t kPivotBlock = 32;

/// Most queries per task of the stage-2 sweeps: a group shares one pass
/// over the pivot table (`KNearestWithPivotRows`). Each worker holds one
/// dense bound slab per query of its group, (kSweepGroup - 1) x 8N bytes
/// more than a one-query sweep over N prototypes.
constexpr std::size_t kSweepGroup = kMaxRowQueries;

/// Queries per stage-2 task for a batch of n on `threads` workers (0:
/// hardware concurrency): kSweepGroup, or floor(n / threads) when that is
/// smaller, so a small batch still gives every worker a task (8 queries on
/// 8 threads run as 8 groups of one).
std::size_t SweepGroupSize(std::size_t n, std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  return std::clamp<std::size_t>(n / threads, 1, kSweepGroup);
}

/// Runs `per_group(lo, hi, stats)` for the queries [lo, hi) of every run of
/// `group` consecutive queries under ParallelFor, where stats[i] is query
/// i's counters (null when `stats` is), and merges the per-query counters
/// in index order. A dense per-query stats array keeps workers
/// contention-free and the merge deterministic.
template <typename Body>
void RunBatch(std::size_t n, std::size_t group, std::size_t threads,
              QueryStats* stats, const Body& per_group) {
  std::vector<QueryStats> per(stats == nullptr ? 0 : n);
  QueryStats* slots = stats == nullptr ? nullptr : per.data();
  ParallelFor(
      (n + group - 1) / group,
      [&](std::size_t t) {
        const std::size_t lo = t * group;
        per_group(lo, std::min(lo + group, n), slots);
      },
      threads);
  for (const QueryStats& s : per) *stats += s;
}

/// Stage 1 of the pivot pipeline: the deduplicated, blocked query x pivot
/// pass. Fills `row_of[i]` with query i's row ordinal and returns the
/// row-major unique-query x pivot matrix; counts the evaluations into
/// `stats`.
std::vector<double> PivotStagePass(const PivotStageSearcher& ps,
                                   const PrototypeStore& queries,
                                   std::size_t threads,
                                   std::vector<std::size_t>* row_of,
                                   QueryStats* stats) {
  const std::size_t q_count = queries.size();
  const std::size_t p_count = ps.pivot_count();

  // Duplicate query strings share one row: popular queries are the normal
  // case for a serving batch, and the pivot stage is the part of the work
  // that is literally identical across them.
  row_of->resize(q_count);
  std::unordered_map<std::string_view, std::size_t> first;
  first.reserve(q_count);
  std::vector<std::size_t> unique;
  unique.reserve(q_count);
  for (std::size_t i = 0; i < q_count; ++i) {
    const auto [it, inserted] = first.emplace(queries[i], unique.size());
    if (inserted) unique.push_back(i);
    (*row_of)[i] = it->second;
  }
  const std::size_t u_count = unique.size();

  // Blocked pass: within each block of queries the pivots run in the outer
  // loop, so one pivot string is streamed against the whole block while it
  // is hot in cache. Blocks are independent ParallelFor tasks.
  std::vector<double> rows(u_count * p_count);
  const std::size_t n_blocks = (u_count + kPivotBlock - 1) / kPivotBlock;
  const StringDistance& distance = ps.pivot_distance();
  ParallelFor(
      n_blocks,
      [&](std::size_t b) {
        const std::size_t lo = b * kPivotBlock;
        const std::size_t hi = std::min(lo + kPivotBlock, u_count);
        std::unique_ptr<PreparedDistance> prepared[kPivotBlock];
        for (std::size_t u = lo; u < hi; ++u) {
          prepared[u - lo] = distance.Prepare(queries[unique[u]]);
        }
        for (std::size_t p = 0; p < p_count; ++p) {
          const std::string_view pivot = ps.PivotString(p);
          for (std::size_t u = lo; u < hi; ++u) {
            rows[u * p_count + p] = prepared[u - lo]->Bounded(
                pivot, std::numeric_limits<double>::infinity());
          }
        }
      },
      threads);

  if (stats != nullptr) {
    const std::uint64_t evals =
        static_cast<std::uint64_t>(u_count) * p_count;
    stats->distance_computations += evals;
    stats->pivot_computations += evals;
  }
  return rows;
}

/// The one k-NN runner behind Nearest and KNearest. With the pivot pipeline
/// enabled and a pivot-stage searcher, it runs stage 1 once and then
/// `with_rows(ps, group, count, lo, out)` for every group of up to
/// kSweepGroup consecutive queries from lo on (`SweepGroupSize`), filling
/// out[0, count);
/// otherwise `lazy(i, s)`, which returns query i's neighbours. Neighbours
/// are closest first. The callables are template parameters, so a caller's
/// variant (per-shard counters) costs the per-query loop no branch.
template <typename WithRows, typename Lazy>
std::vector<std::vector<NeighborResult>> RunKnn(
    const NearestNeighborSearcher& searcher,
    const BatchQueryEngine::Options& options, const PrototypeStore& q,
    QueryStats* stats, const WithRows& with_rows, const Lazy& lazy) {
  std::vector<std::vector<NeighborResult>> results(q.size());
  const auto* ps = options.pivot_stage
                       ? dynamic_cast<const PivotStageSearcher*>(&searcher)
                       : nullptr;
  if (ps != nullptr && ps->pivot_count() > 0 && !q.empty()) {
    std::vector<std::size_t> row_of;
    const std::vector<double> rows =
        PivotStagePass(*ps, q, options.threads, &row_of, stats);
    const std::size_t p_count = ps->pivot_count();
    RunBatch(q.size(), SweepGroupSize(q.size(), options.threads),
             options.threads, stats,
             [&](std::size_t lo, std::size_t hi, QueryStats* s) {
               PivotRowQuery group[kSweepGroup];
               for (std::size_t i = lo; i < hi; ++i) {
                 group[i - lo] = {q[i], &rows[row_of[i] * p_count],
                                  s == nullptr ? nullptr : s + i};
               }
               with_rows(*ps, group, hi - lo, lo, &results[lo]);
             });
    return results;
  }
  RunBatch(q.size(), 1, options.threads, stats,
           [&](std::size_t i, std::size_t, QueryStats* s) {
             results[i] = lazy(i, s == nullptr ? nullptr : s + i);
           });
  return results;
}

}  // namespace

BatchQueryEngine::BatchQueryEngine(const NearestNeighborSearcher& searcher)
    : BatchQueryEngine(searcher, Options()) {}

BatchQueryEngine::BatchQueryEngine(const NearestNeighborSearcher& searcher,
                                   Options options)
    : searcher_(&searcher), options_(options) {}

std::vector<NeighborResult> BatchQueryEngine::Nearest(
    PrototypeStoreRef queries, QueryStats* stats,
    std::vector<QueryStats>* shard_stats) const {
  const PrototypeStore& q = queries.get();
  std::vector<std::vector<NeighborResult>> lists;
  if (shard_stats == nullptr) {
    lists = KNearest(queries, 1, stats);
  } else {
    const auto* laesa = dynamic_cast<const Laesa*>(searcher_);
    if (laesa == nullptr) {
      throw std::invalid_argument(
          "BatchQueryEngine::Nearest: per-shard stats need a Laesa searcher");
    }
    const std::size_t shards = laesa->shard_count();
    // Dense query x shard counters, merged in index order afterwards — the
    // same determinism scheme as the per-query stats.
    std::vector<QueryStats> per_shard(q.size() * shards);
    lists = RunKnn(
        *searcher_, options_, q, stats,
        [&](const PivotStageSearcher&, const PivotRowQuery* group,
            std::size_t count, std::size_t lo,
            std::vector<NeighborResult>* out) {
          laesa->KNearestWithPivotRows(group, count, 1, out,
                                       &per_shard[lo * shards]);
        },
        [&](std::size_t i, QueryStats* s) {
          return laesa->KNearest(q[i], 1, s, &per_shard[i * shards]);
        });
    shard_stats->assign(shards, QueryStats{});
    for (std::size_t i = 0; i < q.size(); ++i) {
      for (std::size_t sh = 0; sh < shards; ++sh) {
        (*shard_stats)[sh] += per_shard[i * shards + sh];
      }
    }
  }
  std::vector<NeighborResult> nearest(lists.size());
  for (std::size_t i = 0; i < lists.size(); ++i) {
    if (lists[i].empty()) {
      throw std::out_of_range("BatchQueryEngine::Nearest: empty index");
    }
    nearest[i] = lists[i].front();
  }
  return nearest;
}

std::vector<std::vector<NeighborResult>> BatchQueryEngine::KNearest(
    PrototypeStoreRef queries, std::size_t k, QueryStats* stats) const {
  const PrototypeStore& q = queries.get();
  return RunKnn(
      *searcher_, options_, q, stats,
      [&](const PivotStageSearcher& ps, const PivotRowQuery* group,
          std::size_t count, std::size_t,
          std::vector<NeighborResult>* out) {
        ps.KNearestWithPivotRows(group, count, k, out);
      },
      [&](std::size_t i, QueryStats* s) {
        return searcher_->KNearest(q[i], k, s);
      });
}

}  // namespace cned
