#ifndef CNED_BENCH_LAESA_SWEEP_H_
#define CNED_BENCH_LAESA_SWEEP_H_

// Shared harness for Figures 3 and 4: LAESA pivot-count sweep reporting the
// average number of distance computations and the average search time per
// query, for each distance, with repetition-based deviations — the exact
// series the paper plots.
//
// Queries run through the BatchQueryEngine (all cores, merged stats): the
// distance-computation counts are identical to the sequential per-query
// loop by the engine's determinism contract, and the reported time is
// batched wall-clock per query, i.e. the throughput a serving deployment
// would see.
//
// With `shards > 1` the store is partitioned into a ShardedPrototypeStore
// and searched with a sharded Laesa. The lazy sharded sweep is bit-identical
// to the flat index (results and stats), so the headline columns stay
// comparable; the harness additionally reports the per-shard split of
// those evaluations and the totals of the batched two-stage pivot
// pipeline, whose shared query x pivot pass replaces the per-query pivot
// evaluations.

#include <cmath>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "datasets/prototype_store.h"
#include "datasets/sharded_prototype_store.h"
#include "distances/registry.h"
#include "metric/stats.h"
#include "search/batch_engine.h"
#include "search/laesa.h"
#include "search/sweep_kernel.h"

namespace cned::bench {

/// Applies a `--kernel=scalar|avx2|neon|auto` harness flag: forces the
/// sweep-kernel variant for the whole run, so the ablation chapters can
/// report vectorisation as its own row (distance-computation counts are
/// bit-identical across kernels by the sweep-kernel contract — only the
/// time column moves). Returns false, listing the available variants, for
/// an unknown or unsupported name.
inline bool ApplySweepKernelFlag(const std::string& value) {
  if (!SetActiveSweepKernels(value)) {
    std::cerr << "unknown or unavailable sweep kernel '" << value
              << "' (available:";
    for (const SweepKernels* k : AvailableSweepKernels()) {
      std::cerr << ' ' << k->name;
    }
    std::cerr << " auto)\n";
    return false;
  }
  std::cout << "sweep kernel: " << ActiveSweepKernels().name << "\n";
  return true;
}

/// Applies a `--table-precision=f64|f32|f16|u8` harness flag: selects the
/// pivot-table storage precision (search/table_quant.h) for every index the
/// sweep builds. Results are exact at any precision (admissible round-down)
/// — the computation columns may move slightly (quantized bounds prune a
/// little less), the time columns show the bandwidth effect. Returns false,
/// listing the valid names, for an unknown name.
inline bool ApplyTablePrecisionFlag(const std::string& value,
                                    TablePrecision* out) {
  if (!ParseTablePrecision(value, out)) {
    std::cerr << "unknown table precision '" << value
              << "' (valid: f64 f32 f16 u8)\n";
    return false;
  }
  std::cout << "table precision: " << TablePrecisionName(*out) << "\n";
  return true;
}

struct SweepPoint {
  std::size_t pivots = 0;
  double mean_computations = 0.0;
  double dev_computations = 0.0;
  double mean_seconds = 0.0;
  // Sharded runs only (shards > 1): the per-shard split of the lazy-path
  // evaluations, and the batched pivot-stage pipeline's per-query totals.
  std::vector<double> shard_mean_computations;
  double mean_batched_computations = 0.0;
  double mean_batched_pivot_evals = 0.0;
};

/// Runs the pivot sweep for one distance. Each repetition draws a fresh
/// prototype subset and query set (as the paper averages over 10 prototype
/// sets); computations are query-time only, as in the paper.
inline std::vector<SweepPoint> RunSweep(
    const StringDistancePtr& distance,
    const std::vector<std::string>& pool,
    const std::vector<std::string>& query_pool, std::size_t train_size,
    std::size_t queries_per_rep, std::size_t repetitions,
    const std::vector<std::size_t>& pivot_counts, Rng& rng,
    std::size_t shards = 1,
    TablePrecision precision = DefaultTablePrecision()) {
  std::vector<SweepPoint> series;
  for (std::size_t pivots : pivot_counts) {
    RunningStats comp_stats, time_stats, batched_comp, batched_pivot;
    std::vector<RunningStats> shard_comp(shards);
    for (std::size_t rep = 0; rep < repetitions; ++rep) {
      // Fresh prototype sample per repetition (same rng order regardless of
      // shard count, so every configuration sees identical data).
      std::vector<std::string> sample;
      sample.reserve(train_size);
      for (std::size_t i = 0; i < train_size; ++i) {
        sample.push_back(pool[rng.Index(pool.size())]);
      }
      // Query sample drawn before the timer (same rng order as the old
      // per-query loop), then answered as one batch.
      PrototypeStore queries;
      queries.Reserve(queries_per_rep);
      for (std::size_t q = 0; q < queries_per_rep; ++q) {
        queries.Add(query_pool[rng.Index(query_pool.size())]);
      }
      QueryStats qstats;
      double secs = 0.0;
      if (shards <= 1) {
        PrototypeStore protos(sample);
        Laesa laesa(protos, distance, pivots, precision);
        BatchQueryEngine engine(laesa);
        Stopwatch watch;
        (void)engine.Nearest(queries, &qstats);
        secs = watch.Seconds();
      } else {
        ShardedPrototypeStore store(sample, shards);
        Laesa laesa(store, distance, pivots, precision);
        BatchQueryEngine engine(laesa);
        std::vector<QueryStats> shard_stats;
        Stopwatch watch;
        (void)engine.Nearest(queries, &qstats, &shard_stats);
        secs = watch.Seconds();
        for (std::size_t s = 0; s < shards; ++s) {
          shard_comp[s].Add(
              static_cast<double>(shard_stats[s].distance_computations) /
              static_cast<double>(queries_per_rep));
        }
        // Second pass through the two-stage pipeline: one shared blocked
        // query x pivot stage, then row-consuming sweeps.
        BatchQueryEngine::Options opt;
        opt.pivot_stage = true;
        BatchQueryEngine batched(laesa, opt);
        QueryStats bstats;
        (void)batched.Nearest(queries, &bstats);
        batched_comp.Add(static_cast<double>(bstats.distance_computations) /
                         static_cast<double>(queries_per_rep));
        batched_pivot.Add(static_cast<double>(bstats.pivot_computations) /
                          static_cast<double>(queries_per_rep));
      }
      comp_stats.Add(static_cast<double>(qstats.distance_computations) /
                     static_cast<double>(queries_per_rep));
      time_stats.Add(secs / static_cast<double>(queries_per_rep));
    }
    SweepPoint point;
    point.pivots = pivots;
    point.mean_computations = comp_stats.mean();
    point.dev_computations = comp_stats.stddev();
    point.mean_seconds = time_stats.mean();
    if (shards > 1) {
      for (std::size_t s = 0; s < shards; ++s) {
        point.shard_mean_computations.push_back(shard_comp[s].mean());
      }
      point.mean_batched_computations = batched_comp.mean();
      point.mean_batched_pivot_evals = batched_pivot.mean();
    }
    series.push_back(std::move(point));
  }
  return series;
}

/// Prints one figure (all distances) as aligned tables.
inline void PrintSweep(
    const std::vector<std::pair<std::string, std::vector<SweepPoint>>>& runs) {
  Table comp({"pivots", "dYB", "dC,h", "dMV", "dmax", "dE"});
  Table times({"pivots", "dYB", "dC,h", "dMV", "dmax", "dE"});
  if (runs.empty() || runs[0].second.empty()) return;
  for (std::size_t p = 0; p < runs[0].second.size(); ++p) {
    std::vector<std::string> comp_row{
        std::to_string(runs[0].second[p].pivots)};
    std::vector<std::string> time_row = comp_row;
    for (const auto& [name, series] : runs) {
      comp_row.push_back(FormatDouble(series[p].mean_computations, 1) +
                         "+-" + FormatDouble(series[p].dev_computations, 1));
      time_row.push_back(FormatDouble(series[p].mean_seconds * 1e6, 1));
    }
    comp.AddRow(comp_row);
    times.AddRow(time_row);
  }
  std::cout << "--- average distance computations per query ---\n";
  comp.Print(std::cout);
  std::cout << "\n--- average search time per query "
               "(microseconds, batched over all cores) ---\n";
  times.Print(std::cout);

  // Sharded runs carry a per-shard split: one extra table per distance.
  const std::size_t shards =
      runs[0].second[0].shard_mean_computations.size();
  if (shards == 0) return;
  for (const auto& [name, series] : runs) {
    std::vector<std::string> header{"pivots"};
    for (std::size_t s = 0; s < shards; ++s) {
      header.push_back("shard" + std::to_string(s));
    }
    header.push_back("batched total");
    header.push_back("batched pivot");
    Table per_shard(header);
    for (const SweepPoint& point : series) {
      std::vector<std::string> row{std::to_string(point.pivots)};
      for (double c : point.shard_mean_computations) {
        row.push_back(FormatDouble(c, 1));
      }
      row.push_back(FormatDouble(point.mean_batched_computations, 1));
      row.push_back(FormatDouble(point.mean_batched_pivot_evals, 1));
      per_shard.AddRow(row);
    }
    std::cout << "\n--- " << name
              << ": per-shard distance evaluations per query (lazy path; "
                 "last columns: two-stage pipeline totals) ---\n";
    per_shard.Print(std::cout);
  }
}

}  // namespace cned::bench

#endif  // CNED_BENCH_LAESA_SWEEP_H_
