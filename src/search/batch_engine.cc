#include "search/batch_engine.h"

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "common/parallel.h"
#include "search/pivot_stage.h"
#include "search/laesa.h"

namespace cned {
namespace {

/// Queries per block of the stage-1 pivot pass: the cache-tile height.
constexpr std::size_t kPivotBlock = 32;

/// Runs `per_query(i, stats_i)` for every query index under ParallelFor and
/// merges the per-query counters in index order. A dense per-query stats
/// array keeps workers contention-free and the merge deterministic.
template <typename Body>
void RunBatch(std::size_t n, std::size_t threads, QueryStats* stats,
              const Body& per_query) {
  if (stats == nullptr) {
    ParallelFor(n, [&](std::size_t i) { per_query(i, nullptr); }, threads);
    return;
  }
  std::vector<QueryStats> per(n);
  ParallelFor(n, [&](std::size_t i) { per_query(i, &per[i]); }, threads);
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
        for (std::size_t p = 0; p < p_count; ++p) {
          const std::string_view pivot = ps.PivotString(p);
          for (std::size_t u = lo; u < hi; ++u) {
            rows[u * p_count + p] = distance.Distance(queries[unique[u]], pivot);
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
/// `with_row(ps, i, row, s)` for every query; otherwise `lazy(i, s)`. Both
/// return query i's neighbours, closest first. The callables are template
/// parameters, so a caller's variant (per-shard counters) costs the
/// per-query loop no branch.
template <typename WithRow, typename Lazy>
std::vector<std::vector<NeighborResult>> RunKnn(
    const NearestNeighborSearcher& searcher,
    const BatchQueryEngine::Options& options, const PrototypeStore& q,
    QueryStats* stats, const WithRow& with_row, const Lazy& lazy) {
  std::vector<std::vector<NeighborResult>> results(q.size());
  const auto* ps = options.pivot_stage
                       ? dynamic_cast<const PivotStageSearcher*>(&searcher)
                       : nullptr;
  if (ps != nullptr && ps->pivot_count() > 0 && !q.empty()) {
    std::vector<std::size_t> row_of;
    const std::vector<double> rows =
        PivotStagePass(*ps, q, options.threads, &row_of, stats);
    const std::size_t p_count = ps->pivot_count();
    RunBatch(q.size(), options.threads, stats,
             [&](std::size_t i, QueryStats* s) {
               results[i] = with_row(*ps, i, &rows[row_of[i] * p_count], s);
             });
    return results;
  }
  RunBatch(q.size(), options.threads, stats,
           [&](std::size_t i, QueryStats* s) { results[i] = lazy(i, s); });
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
        [&](const PivotStageSearcher&, std::size_t i, const double* row,
            QueryStats* s) {
          return laesa->KNearestWithPivotRow(q[i], 1, row, s,
                                             &per_shard[i * shards]);
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
      [&](const PivotStageSearcher& ps, std::size_t i, const double* row,
          QueryStats* s) { return ps.KNearestWithPivotRow(q[i], k, row, s); },
      [&](std::size_t i, QueryStats* s) {
        return searcher_->KNearest(q[i], k, s);
      });
}

}  // namespace cned
