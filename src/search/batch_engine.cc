#include "search/batch_engine.h"

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "common/parallel.h"
#include "search/pivot_stage.h"
#include "search/sharded_laesa.h"

namespace cned {
namespace {

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

}  // namespace

BatchQueryEngine::BatchQueryEngine(const NearestNeighborSearcher& searcher)
    : BatchQueryEngine(searcher, Options()) {}

BatchQueryEngine::BatchQueryEngine(const NearestNeighborSearcher& searcher,
                                   Options options)
    : searcher_(&searcher), options_(options) {}

std::vector<double> BatchQueryEngine::PivotStagePass(
    const PivotStageSearcher& ps, const PrototypeStore& queries,
    std::vector<std::size_t>* row_of, QueryStats* stats) const {
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
  const std::size_t block = options_.pivot_block > 0 ? options_.pivot_block : 1;
  const std::size_t n_blocks = (u_count + block - 1) / block;
  const StringDistance& distance = ps.pivot_distance();
  ParallelFor(
      n_blocks,
      [&](std::size_t b) {
        const std::size_t lo = b * block;
        const std::size_t hi = std::min(lo + block, u_count);
        for (std::size_t p = 0; p < p_count; ++p) {
          const std::string_view pivot = ps.PivotString(p);
          for (std::size_t u = lo; u < hi; ++u) {
            rows[u * p_count + p] = distance.Distance(queries[unique[u]], pivot);
          }
        }
      },
      options_.threads);

  if (stats != nullptr) {
    const std::uint64_t evals =
        static_cast<std::uint64_t>(u_count) * p_count;
    stats->distance_computations += evals;
    stats->pivot_computations += evals;
  }
  return rows;
}

std::vector<NeighborResult> BatchQueryEngine::Nearest(
    PrototypeStoreRef queries, QueryStats* stats) const {
  const PrototypeStore& q = queries.get();
  std::vector<NeighborResult> results(q.size());
  const auto* ps = options_.pivot_stage
                       ? dynamic_cast<const PivotStageSearcher*>(searcher_)
                       : nullptr;
  if (ps != nullptr && ps->pivot_count() > 0 && !q.empty()) {
    std::vector<std::size_t> row_of;
    const std::vector<double> rows = PivotStagePass(*ps, q, &row_of, stats);
    const std::size_t p_count = ps->pivot_count();
    RunBatch(q.size(), options_.threads, stats,
             [&](std::size_t i, QueryStats* s) {
               results[i] =
                   ps->NearestWithPivotRow(q[i], &rows[row_of[i] * p_count], s);
             });
    return results;
  }
  RunBatch(q.size(), options_.threads, stats,
           [&](std::size_t i, QueryStats* s) {
             results[i] = searcher_->Nearest(q[i], s);
           });
  return results;
}

std::vector<NeighborResult> BatchQueryEngine::Nearest(
    PrototypeStoreRef queries, QueryStats* stats,
    std::vector<QueryStats>* shard_stats) const {
  if (shard_stats == nullptr) return Nearest(queries, stats);
  const auto* sharded = dynamic_cast<const ShardedLaesa*>(searcher_);
  if (sharded == nullptr) {
    throw std::invalid_argument(
        "BatchQueryEngine::Nearest: per-shard stats need a sharded searcher");
  }
  const PrototypeStore& q = queries.get();
  const std::size_t shards = sharded->shard_count();
  std::vector<NeighborResult> results(q.size());
  // Dense query x shard counters, merged in index order afterwards — the
  // same determinism scheme as the per-query stats.
  std::vector<QueryStats> per_shard(q.size() * shards);
  const auto* ps = options_.pivot_stage
                       ? dynamic_cast<const PivotStageSearcher*>(searcher_)
                       : nullptr;
  if (ps != nullptr && ps->pivot_count() > 0 && !q.empty()) {
    std::vector<std::size_t> row_of;
    const std::vector<double> rows = PivotStagePass(*ps, q, &row_of, stats);
    const std::size_t p_count = ps->pivot_count();
    RunBatch(q.size(), options_.threads, stats,
             [&](std::size_t i, QueryStats* s) {
               results[i] = sharded->NearestWithPivotRow(
                   q[i], &rows[row_of[i] * p_count], s,
                   &per_shard[i * shards]);
             });
  } else {
    RunBatch(q.size(), options_.threads, stats,
             [&](std::size_t i, QueryStats* s) {
               results[i] = sharded->Nearest(
                   q[i], s, &per_shard[i * shards]);
             });
  }
  shard_stats->assign(shards, QueryStats{});
  for (std::size_t i = 0; i < q.size(); ++i) {
    for (std::size_t sh = 0; sh < shards; ++sh) {
      (*shard_stats)[sh] += per_shard[i * shards + sh];
    }
  }
  return results;
}

std::vector<std::vector<NeighborResult>> BatchQueryEngine::KNearest(
    PrototypeStoreRef queries, std::size_t k, QueryStats* stats) const {
  const PrototypeStore& q = queries.get();
  std::vector<std::vector<NeighborResult>> results(q.size());
  const auto* ps = options_.pivot_stage
                       ? dynamic_cast<const PivotStageSearcher*>(searcher_)
                       : nullptr;
  if (ps != nullptr && ps->pivot_count() > 0 && !q.empty()) {
    std::vector<std::size_t> row_of;
    const std::vector<double> rows = PivotStagePass(*ps, q, &row_of, stats);
    const std::size_t p_count = ps->pivot_count();
    RunBatch(q.size(), options_.threads, stats,
             [&](std::size_t i, QueryStats* s) {
               results[i] = ps->KNearestWithPivotRow(
                   q[i], k, &rows[row_of[i] * p_count], s);
             });
    return results;
  }
  if (!q.empty()) {
    // Probe k-NN support on the calling thread: backends without KNearest
    // throw std::logic_error here. Inside a ParallelFor worker the same
    // throw would std::terminate the process (raw std::thread semantics).
    // k = 0 is a no-op on every supporting backend (returns {} before any
    // distance evaluation), so the probe costs nothing and touches no
    // stats.
    (void)searcher_->KNearest(q[0], 0, nullptr);
  }
  RunBatch(q.size(), options_.threads, stats,
           [&](std::size_t i, QueryStats* s) {
             results[i] = searcher_->KNearest(q[i], k, s);
           });
  return results;
}

std::vector<int> BatchQueryEngine::Classify(PrototypeStoreRef queries,
                                            const std::vector<int>& labels,
                                            QueryStats* stats) const {
  if (labels.size() != searcher_->size()) {
    throw std::invalid_argument(
        "BatchQueryEngine::Classify: labels/prototypes size mismatch");
  }
  const std::vector<NeighborResult> nearest = Nearest(queries, stats);
  std::vector<int> out(nearest.size());
  for (std::size_t i = 0; i < nearest.size(); ++i) {
    out[i] = labels[nearest[i].index];
  }
  return out;
}

}  // namespace cned
