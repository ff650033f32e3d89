// Shard-engine benchmark: LAESA nearest-neighbour queries over a
// ShardedPrototypeStore at 1/2/4/8 shards, answered (a) sequentially one
// query at a time through the lazy sharded sweep and (b) through the
// BatchQueryEngine's two-stage pipeline (one blocked query x pivot pass
// shared by the whole batch, then row-consuming sweeps on all cores).
//
// Contracts checked per shard count:
//   * the lazy sharded sweep returns bit-identical neighbours, distances
//     and QueryStats to the flat single-store Laesa (the sharded execution
//     is the same sweep, partitioned);
//   * the batched pipeline returns the same neighbour distances (both
//     paths are exact on the metric workload distances used here);
//   * the shared pivot stage evaluates fewer query-pivot distances per
//     batch than the per-query path — the batch repeats popular queries,
//     as serving traffic does, and the stage deduplicates them while the
//     per-query path cannot.
//
// Human-readable progress goes to stderr; a single JSON object goes to
// stdout (CI greps the contract booleans).

#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/config.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "datasets/perturb.h"
#include "datasets/prototype_store.h"
#include "datasets/sharded_prototype_store.h"
#include "distances/registry.h"
#include "search/batch_engine.h"
#include "search/laesa.h"

namespace cned {
namespace {

struct ShardRun {
  std::size_t shards = 0;
  double lazy_seconds = 0.0;
  double batched_seconds = 0.0;
  QueryStats lazy_stats;
  QueryStats batched_stats;
  std::vector<std::uint64_t> shard_evals;
  bool identical_to_flat = false;
  bool batched_distances_identical = false;
  bool pivot_stage_reduces = false;
};

struct DistanceReport {
  std::string distance;
  std::vector<ShardRun> runs;
};

DistanceReport RunDistance(const std::string& distance_name,
                           const std::vector<std::string>& protos,
                           const PrototypeStore& queries, std::size_t pivots,
                           std::ostream& log) {
  DistanceReport report;
  report.distance = distance_name;
  auto dist = MakeDistance(distance_name);

  // Flat single-store reference: the identity baseline for every shard
  // count (a sharded Laesa picks the same max-min pivots over the same data).
  PrototypeStore flat_store(protos);
  Laesa flat(flat_store, dist, pivots);
  QueryStats flat_stats;
  std::vector<NeighborResult> flat_results(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    flat_results[i] = flat.Nearest(queries[i], &flat_stats);
  }

  for (std::size_t shards : {1u, 2u, 4u, 8u}) {
    ShardRun run;
    run.shards = shards;
    ShardedPrototypeStore store(protos, shards);
    Laesa index(store, dist, pivots);

    // Warm-up so neither timed path pays first-allocation noise.
    BatchQueryEngine::Options opt;
    opt.pivot_stage = true;
    BatchQueryEngine batched(index, opt);
    (void)batched.Nearest(queries);

    std::vector<NeighborResult> lazy(queries.size());
    Stopwatch w_lazy;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      lazy[i] = index.Nearest(queries[i], &run.lazy_stats);
    }
    run.lazy_seconds = w_lazy.Seconds();

    std::vector<QueryStats> shard_stats;
    Stopwatch w_batched;
    auto batched_results = batched.Nearest(queries, &run.batched_stats,
                                           &shard_stats);
    run.batched_seconds = w_batched.Seconds();
    for (const QueryStats& s : shard_stats) {
      run.shard_evals.push_back(s.distance_computations);
    }

    run.identical_to_flat =
        run.lazy_stats == flat_stats && lazy.size() == flat_results.size();
    for (std::size_t i = 0; run.identical_to_flat && i < lazy.size(); ++i) {
      run.identical_to_flat = lazy[i].index == flat_results[i].index &&
                              lazy[i].distance == flat_results[i].distance;
    }
    run.batched_distances_identical =
        batched_results.size() == flat_results.size();
    for (std::size_t i = 0;
         run.batched_distances_identical && i < batched_results.size(); ++i) {
      run.batched_distances_identical =
          batched_results[i].distance == flat_results[i].distance;
    }
    run.pivot_stage_reduces = run.batched_stats.pivot_computations <
                              run.lazy_stats.pivot_computations;

    log << "  " << distance_name << " S=" << shards << ": lazy "
        << run.lazy_seconds * 1e3 << " ms ("
        << run.lazy_stats.pivot_computations << " pivot evals), batched "
        << run.batched_seconds * 1e3 << " ms ("
        << run.batched_stats.pivot_computations
        << " pivot evals), speedup "
        << (run.batched_seconds > 0.0
                ? run.lazy_seconds / run.batched_seconds
                : 0.0)
        << ", identical " << (run.identical_to_flat ? "yes" : "NO")
        << ", reduces " << (run.pivot_stage_reduces ? "yes" : "NO") << "\n";
    report.runs.push_back(std::move(run));
  }
  return report;
}

void PrintStats(const char* key, const QueryStats& s, std::ostream& out) {
  out << "\"" << key << "\": {\"computations\": " << s.distance_computations
      << ", \"pivot_evals\": " << s.pivot_computations
      << ", \"abandons\": " << s.bounded_abandons << "}";
}

int Run() {
  std::ostream& log = std::cerr;
  const auto pool =
      static_cast<std::size_t>(Config::ScaledInt("MSE_POOL", 2000));
  const auto num_queries =
      static_cast<std::size_t>(Config::ScaledInt("MSE_QUERIES", 600));
  const auto unique_queries =
      static_cast<std::size_t>(Config::ScaledInt("MSE_UNIQUE", 150));
  const auto pivots =
      static_cast<std::size_t>(Config::ScaledInt("MSE_PIVOTS", 40));
  const unsigned hw = std::thread::hardware_concurrency();

  log << "micro_shard_engine: sharded LAESA, lazy vs two-stage pipeline "
         "(scale=" << Config::Scale() << ", hardware threads=" << hw << ")\n";

  Dataset dict = bench::MakeDictionary(pool, Config::Seed());
  Rng rng(Config::Seed() + 71);
  // A serving-shaped batch: popular queries repeat. Draw the batch with
  // replacement from a small unique pool so the deduplicating pivot stage
  // has the duplicates production traffic would give it.
  auto unique_pool = MakeQueries(dict.strings, unique_queries, 2,
                                 Alphabet::Latin(), rng);
  PrototypeStore queries;
  queries.Reserve(num_queries);
  for (std::size_t i = 0; i < num_queries; ++i) {
    queries.Add(unique_pool[rng.Index(unique_pool.size())]);
  }
  log << "  " << dict.size() << " prototypes, " << queries.size()
      << " queries (" << unique_pool.size() << " unique), " << pivots
      << " pivots\n";

  std::vector<DistanceReport> reports;
  for (const char* name : {"dE", "dYB"}) {
    reports.push_back(RunDistance(name, dict.strings, queries, pivots, log));
  }

  bool all_identical = true, all_batched_identical = true, all_reduce = true;
  for (const auto& rep : reports) {
    for (const auto& run : rep.runs) {
      all_identical = all_identical && run.identical_to_flat;
      all_batched_identical =
          all_batched_identical && run.batched_distances_identical;
      all_reduce = all_reduce && run.pivot_stage_reduces;
    }
  }

  std::cout.precision(6);
  std::cout << "{\n"
            << "  \"bench\": \"micro_shard_engine\",\n"
            << "  \"hardware_threads\": " << hw << ",\n"
            << "  \"prototypes\": " << dict.size() << ",\n"
            << "  \"queries\": " << queries.size() << ",\n"
            << "  \"unique_queries\": " << unique_pool.size() << ",\n"
            << "  \"pivots\": " << pivots << ",\n"
            << "  \"workloads\": [\n";
  for (std::size_t r = 0; r < reports.size(); ++r) {
    const auto& rep = reports[r];
    std::cout << "   {\"distance\": \"" << rep.distance << "\", \"runs\": [\n";
    for (std::size_t i = 0; i < rep.runs.size(); ++i) {
      const auto& run = rep.runs[i];
      std::cout << "    {\"shards\": " << run.shards
                << ", \"lazy_seconds\": " << run.lazy_seconds
                << ", \"batched_seconds\": " << run.batched_seconds << ",\n     ";
      PrintStats("lazy", run.lazy_stats, std::cout);
      std::cout << ",\n     ";
      PrintStats("batched", run.batched_stats, std::cout);
      std::cout << ",\n     \"shard_evals\": [";
      for (std::size_t s = 0; s < run.shard_evals.size(); ++s) {
        std::cout << run.shard_evals[s]
                  << (s + 1 < run.shard_evals.size() ? ", " : "");
      }
      std::cout << "],\n     \"identical_to_flat\": "
                << (run.identical_to_flat ? "true" : "false")
                << ", \"batched_distances_identical\": "
                << (run.batched_distances_identical ? "true" : "false")
                << ", \"pivot_stage_reduces\": "
                << (run.pivot_stage_reduces ? "true" : "false") << "}"
                << (i + 1 < rep.runs.size() ? "," : "") << "\n";
    }
    std::cout << "   ]}" << (r + 1 < reports.size() ? "," : "") << "\n";
  }
  std::cout << "  ],\n"
            << "  \"identical_results\": "
            << (all_identical && all_batched_identical ? "true" : "false")
            << ",\n"
            << "  \"pivot_stage_reduces\": " << (all_reduce ? "true" : "false")
            << "\n}\n";
  return all_identical && all_batched_identical && all_reduce ? 0 : 1;
}

}  // namespace
}  // namespace cned

int main() { return cned::Run(); }
