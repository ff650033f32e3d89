// Sweep-kernel benchmark: the dispatched SIMD elimination core vs the
// scalar reference, measured two ways.
//
//  1. Kernel micro loops over synthetic packed candidate slabs: ns per
//     candidate for the dense row update, the gathered (packed) row update
//     and the flagged eliminate-and-compact pass, per kernel variant. The
//     eliminate pass is timed in its keep-all configuration (bound = inf,
//     skip absent), which is idempotent — the slab can be re-swept without
//     rebuilding, and it is the traffic-heavy early-sweep shape.
//  2. The fig3 dictionary workload end to end: flat LAESA and a 4-shard
//     sharded Laesa answering a query batch through the BatchQueryEngine,
//     lazy and two-stage pivot pipeline, per kernel variant.
//
// Contracts checked (CI greps the booleans):
//   * identical_results — every kernel variant returns bit-identical
//     neighbours, distances AND QueryStats to the scalar reference on the
//     fig3 workload, across flat/sharded and lazy/pivot-stage paths;
//   * kernel_speedup_ok — on a machine where a vector variant is active,
//     the dense row-update kernel beats scalar by a measurable margin
//     (>= 1.05x per candidate; trivially true where only scalar exists);
//   * u8_speedup_ok — the quantized u8 dense row update streams rows at
//     >= 1.5x the f64 per-candidate throughput on the best kernel (the
//     memory-bandwidth payoff of 1-byte table elements; measured over a
//     row set deliberately sized beyond cache, unscaled by CNED_SCALE);
//   * quantized_exact — every quantized precision returns the same nearest
//     DISTANCES as the f64 index on the fig3 workload (admissible
//     round-down never loses the true neighbour on a metric distance).
//
// The quantized section also reports each precision's eliminated fraction
// (1 - distance computations / N per query): how much pruning the widened
// bounds give up relative to the exact f64 table.
//
// Human-readable progress goes to stderr; a single JSON object goes to
// stdout.

#include <cstdint>
#include <iostream>
#include <string>
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
#include "search/sweep_kernel.h"
#include "search/table_quant.h"

namespace cned {
namespace {

struct KernelMicro {
  std::string name;
  double dense_ns = 0.0;      // per candidate
  double packed_ns = 0.0;     // per candidate
  double eliminate_ns = 0.0;  // per candidate
};

/// Times the three hot kernels of one variant over n-candidate slabs.
KernelMicro TimeKernels(const SweepKernels& k, std::size_t n,
                        std::size_t reps) {
  KernelMicro out;
  out.name = k.name;
  Rng rng(Config::Seed() + 99);

  AlignedBuffer<std::uint32_t> idx;
  AlignedBuffer<double> lower, row;
  std::vector<std::int32_t> rank(n, -1);
  idx.resize(n);
  lower.resize(n);
  row.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    idx.data()[i] = static_cast<std::uint32_t>(i);
    lower.data()[i] = rng.Uniform();
    row.data()[i] = rng.Uniform() * 4.0;
    if (i % 16 == 0) rank[i] = static_cast<std::int32_t>(i / 16);
  }
  const double inf = std::numeric_limits<double>::infinity();
  const double denom = static_cast<double>(n) * static_cast<double>(reps);

  // Warm-up + steady state: every pass below is idempotent on the slabs.
  k.update_lower_dense(1.0, row.data(), lower.data(), n);
  Stopwatch w_dense;
  for (std::size_t r = 0; r < reps; ++r) {
    k.update_lower_dense(1.0, row.data(), lower.data(), n);
  }
  out.dense_ns = w_dense.Seconds() * 1e9 / denom;

  k.update_lower_packed(1.0, row.data(), idx.data(), 0, lower.data(), n);
  Stopwatch w_packed;
  for (std::size_t r = 0; r < reps; ++r) {
    k.update_lower_packed(1.0, row.data(), idx.data(), 0, lower.data(), n);
  }
  out.packed_ns = w_packed.Seconds() * 1e9 / denom;

  // Keep-all eliminate: finite bounds vs an infinite threshold, skip absent
  // — compacts every candidate onto itself, so the slab survives intact.
  std::uint64_t sink = 0;
  (void)k.eliminate_and_compact_flagged(idx.data(), lower.data(), rank.data(),
                                        n, 0xFFFFFFFFu, inf);
  Stopwatch w_elim;
  for (std::size_t r = 0; r < reps; ++r) {
    const SweepCompactResult pass = k.eliminate_and_compact_flagged(
        idx.data(), lower.data(), rank.data(), n, 0xFFFFFFFFu, inf);
    sink += pass.live;
  }
  out.eliminate_ns = w_elim.Seconds() * 1e9 / denom;
  if (sink != static_cast<std::uint64_t>(n) * reps) {
    std::cerr << "  (keep-all eliminate dropped candidates?!)\n";
  }
  return out;
}

constexpr TablePrecision kAllPrecisions[] = {
    TablePrecision::kF64, TablePrecision::kF32, TablePrecision::kF16,
    TablePrecision::kU8};

/// One quantized row-streaming measurement: (kernel, precision) -> ns per
/// candidate for the dense update, streaming `n_rows` distinct rows over
/// one shared lower slab. The row set is sized past the last-level cache
/// (MSK_QROWS x MSK_QCAND, deliberately NOT scaled by CNED_SCALE), so the
/// f64 baseline pays full memory bandwidth — the configuration the 1-byte
/// elements exist to win.
struct QuantMicro {
  std::string kernel;
  std::string precision;
  double dense_ns = 0.0;
};

QuantMicro TimeQuantDense(const SweepKernels& k, TablePrecision prec,
                          const std::vector<double>& rows, std::size_t n_rows,
                          std::size_t n, std::size_t reps) {
  QuantMicro out;
  out.kernel = k.name;
  out.precision = TablePrecisionName(prec);

  // Quantize every row off the shared f64 source (f64 passes through).
  std::vector<unsigned char> codes;
  std::vector<QuantRowMeta> meta;
  QuantTableView view;
  view.precision = prec;
  if (prec == TablePrecision::kF64) {
    view.f64 = rows.data();
  } else {
    const std::size_t width = TablePrecisionBytes(prec);
    codes.resize(n_rows * n * width);
    meta.resize(n_rows);
    for (std::size_t r = 0; r < n_rows; ++r) {
      QuantRowEncoder enc;
      enc.Scan(rows.data() + r * n, n);
      enc.Prepare(prec);
      enc.Encode(rows.data() + r * n, n, codes.data() + r * n * width);
      meta[r] = enc.Finish();
    }
    view.q = codes.data();
    view.rows = meta.data();
  }

  AlignedBuffer<double> lower;
  lower.resize(n);
  for (std::size_t i = 0; i < n; ++i) lower.data()[i] = 0.0;

  // Warm-up pass, then steady state (the update is a max, so repeated
  // passes are idempotent on the slab while still reading every element).
  for (std::size_t r = 0; r < n_rows; ++r) {
    QuantUpdateLowerDense(k, view, r, n, 1.0 + 1e-3 * r, lower.data());
  }
  Stopwatch watch;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (std::size_t r = 0; r < n_rows; ++r) {
      QuantUpdateLowerDense(k, view, r, n, 1.0 + 1e-3 * r, lower.data());
    }
  }
  out.dense_ns = watch.Seconds() * 1e9 /
                 (static_cast<double>(reps) * static_cast<double>(n_rows) *
                  static_cast<double>(n));
  return out;
}

struct Fig3Run {
  std::string kernel;
  double flat_lazy_us = 0.0;     // per query
  double sharded_lazy_us = 0.0;  // per query
  double flat_staged_us = 0.0;
  double sharded_staged_us = 0.0;
  std::vector<NeighborResult> results;  // flat lazy (identity reference)
  QueryStats flat_stats, sharded_stats, staged_stats, sharded_staged_stats;
  std::vector<NeighborResult> staged_results;
};

Fig3Run RunFig3(const Laesa& flat, const Laesa& sharded,
                const PrototypeStore& queries) {
  Fig3Run run;
  run.kernel = ActiveSweepKernels().name;
  const double q = static_cast<double>(queries.size());

  BatchQueryEngine flat_engine(flat);
  BatchQueryEngine sharded_engine(sharded);
  BatchQueryEngine::Options staged_opt;
  staged_opt.pivot_stage = true;
  BatchQueryEngine flat_staged(flat, staged_opt);
  BatchQueryEngine sharded_staged(sharded, staged_opt);

  (void)flat_engine.Nearest(queries);  // warm-up (scratch, page-in)
  Stopwatch w1;
  run.results = flat_engine.Nearest(queries, &run.flat_stats);
  run.flat_lazy_us = w1.Seconds() * 1e6 / q;

  Stopwatch w2;
  const auto sharded_results = sharded_engine.Nearest(queries,
                                                      &run.sharded_stats);
  run.sharded_lazy_us = w2.Seconds() * 1e6 / q;

  Stopwatch w3;
  run.staged_results = flat_staged.Nearest(queries, &run.staged_stats);
  run.flat_staged_us = w3.Seconds() * 1e6 / q;

  Stopwatch w4;
  const auto sharded_staged_results =
      sharded_staged.Nearest(queries, &run.sharded_staged_stats);
  run.sharded_staged_us = w4.Seconds() * 1e6 / q;

  // The sharded lazy sweep is contractually bit-identical to the flat one,
  // and both staged paths to each other — fold that into the run's results
  // so the cross-kernel comparison covers all four paths.
  for (std::size_t i = 0; i < run.results.size(); ++i) {
    if (sharded_results[i].index != run.results[i].index ||
        sharded_results[i].distance != run.results[i].distance ||
        sharded_staged_results[i].index != run.staged_results[i].index ||
        sharded_staged_results[i].distance != run.staged_results[i].distance) {
      std::cerr << "  sharded/flat divergence at query " << i << "\n";
      run.results.clear();  // poison: identical_results will fail
      break;
    }
  }
  return run;
}

bool SameResults(const std::vector<NeighborResult>& a,
                 const std::vector<NeighborResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].index != b[i].index || a[i].distance != b[i].distance) {
      return false;
    }
  }
  return true;
}

int Run() {
  std::ostream& log = std::cerr;
  const auto candidates =
      static_cast<std::size_t>(Config::ScaledInt("MSK_CANDIDATES", 8192));
  const auto reps =
      static_cast<std::size_t>(Config::ScaledInt("MSK_REPS", 20000));
  const auto pool =
      static_cast<std::size_t>(Config::ScaledInt("MSK_POOL", 2000));
  const auto train =
      static_cast<std::size_t>(Config::ScaledInt("MSK_TRAIN", 1000));
  const auto num_queries =
      static_cast<std::size_t>(Config::ScaledInt("MSK_QUERIES", 300));
  const auto pivots =
      static_cast<std::size_t>(Config::ScaledInt("MSK_PIVOTS", 50));

  log << "micro_sweep_kernel: dispatched SIMD sweep kernels vs scalar "
         "(scale=" << Config::Scale() << ")\n";
  log << "  available kernels:";
  for (const SweepKernels* k : AvailableSweepKernels()) {
    log << ' ' << k->name;
  }
  log << " (startup active: " << ActiveSweepKernels().name << ")\n";

  // --- 1. Kernel micro loops ---------------------------------------------
  std::vector<KernelMicro> micro;
  for (const SweepKernels* k : AvailableSweepKernels()) {
    micro.push_back(TimeKernels(*k, candidates, reps));
    log << "  " << micro.back().name << ": dense " << micro.back().dense_ns
        << " ns/cand, packed " << micro.back().packed_ns
        << " ns/cand, eliminate " << micro.back().eliminate_ns
        << " ns/cand\n";
  }
  const KernelMicro& scalar_micro = micro.front();
  const KernelMicro& best_micro = micro.back();
  const double dense_speedup =
      best_micro.dense_ns > 0.0 ? scalar_micro.dense_ns / best_micro.dense_ns
                                : 0.0;
  const bool kernel_speedup_ok =
      micro.size() == 1 || dense_speedup >= 1.05;
  log << "  dense speedup (best vs scalar): " << dense_speedup << "x\n";

  // --- 1b. Quantized dense row streaming ---------------------------------
  // Unscaled knobs: the row set must stay bigger than the last-level cache
  // or the f64 baseline reads from cache and the bandwidth comparison is
  // meaningless (CNED_SCALE=0.2 CI runs would otherwise shrink it).
  const auto q_rows =
      static_cast<std::size_t>(Config::Int("MSK_QROWS", 192));
  const auto q_cand =
      static_cast<std::size_t>(Config::Int("MSK_QCAND", 32768));
  const auto q_reps = static_cast<std::size_t>(Config::Int("MSK_QREPS", 8));
  log << "  quantized dense streaming: " << q_rows << " rows x " << q_cand
      << " candidates (f64 row set "
      << (q_rows * q_cand * sizeof(double)) / (1024 * 1024) << " MiB)\n";
  std::vector<double> q_source(q_rows * q_cand);
  {
    Rng qrng(Config::Seed() + 7);
    for (double& v : q_source) v = qrng.Uniform() * 4.0;
  }
  std::vector<QuantMicro> quant_micro;
  double u8_speedup = 0.0;
  for (const SweepKernels* k : AvailableSweepKernels()) {
    double f64_ns = 0.0, u8_ns = 0.0;
    for (TablePrecision prec : kAllPrecisions) {
      quant_micro.push_back(
          TimeQuantDense(*k, prec, q_source, q_rows, q_cand, q_reps));
      const QuantMicro& qm = quant_micro.back();
      log << "  " << qm.kernel << "/" << qm.precision << ": dense "
          << qm.dense_ns << " ns/cand\n";
      if (prec == TablePrecision::kF64) f64_ns = qm.dense_ns;
      if (prec == TablePrecision::kU8) u8_ns = qm.dense_ns;
    }
    // The gate tracks the best (last-listed) kernel — the one serving uses.
    u8_speedup = u8_ns > 0.0 ? f64_ns / u8_ns : 0.0;
  }
  const bool u8_speedup_ok = micro.size() == 1 || u8_speedup >= 1.5;
  log << "  u8 dense speedup vs f64 (best kernel): " << u8_speedup << "x\n";

  // --- 2. fig3 dictionary workload ---------------------------------------
  Dataset dict = bench::MakeDictionary(pool, Config::Seed());
  Rng rng(Config::Seed() + 83);
  std::vector<std::string> sample;
  sample.reserve(train);
  for (std::size_t i = 0; i < train; ++i) {
    sample.push_back(dict.strings[rng.Index(dict.strings.size())]);
  }
  auto query_pool =
      MakeQueries(dict.strings, num_queries, 2, Alphabet::Latin(), rng);
  PrototypeStore queries(query_pool);

  auto dist = MakeDistance("dE");
  PrototypeStore flat_store(sample);
  Laesa flat(flat_store, dist, pivots);
  ShardedPrototypeStore sharded_store(sample, 4);
  Laesa sharded(sharded_store, dist, pivots);
  log << "  fig3 workload: " << train << " prototypes, " << queries.size()
      << " queries, " << pivots << " pivots, dE, 4 shards\n";

  std::vector<Fig3Run> runs;
  bool identical = true;
  for (const SweepKernels* k : AvailableSweepKernels()) {
    if (!SetActiveSweepKernels(k->name)) continue;
    runs.push_back(RunFig3(flat, sharded, queries));
    const Fig3Run& run = runs.back();
    log << "  " << run.kernel << ": flat lazy " << run.flat_lazy_us
        << " us/q, sharded lazy " << run.sharded_lazy_us
        << " us/q, flat staged " << run.flat_staged_us
        << " us/q, sharded staged " << run.sharded_staged_us << " us/q\n";
    const Fig3Run& ref = runs.front();  // scalar
    const bool same =
        SameResults(ref.results, run.results) &&
        SameResults(ref.staged_results, run.staged_results) &&
        ref.flat_stats == run.flat_stats &&
        ref.sharded_stats == run.sharded_stats &&
        ref.staged_stats == run.staged_stats &&
        ref.sharded_staged_stats == run.sharded_staged_stats;
    if (!same) {
      log << "  MISMATCH vs scalar for kernel " << run.kernel << "\n";
      identical = false;
    }
  }
  SetActiveSweepKernels("auto");

  // --- 3. Per-precision elimination on the fig3 workload ------------------
  // Exactness + pruning cost: each precision's index must return the same
  // nearest distances as f64 (admissible bounds on a metric distance), and
  // the eliminated fraction quantifies how much pruning the widened bounds
  // give up.
  struct PrecisionRun {
    std::string precision;
    double eliminated_fraction = 0.0;
    std::uint64_t computations = 0;
  };
  std::vector<PrecisionRun> precision_runs;
  bool quantized_exact = true;
  const std::vector<NeighborResult>& f64_results = runs.front().results;
  const double total_cand = static_cast<double>(queries.size()) *
                            static_cast<double>(flat_store.size());
  for (TablePrecision prec : kAllPrecisions) {
    PrecisionRun pr;
    pr.precision = TablePrecisionName(prec);
    QueryStats pstats;
    std::vector<NeighborResult> presults;
    if (prec == TablePrecision::kF64) {
      pstats = runs.front().flat_stats;
      presults = f64_results;
    } else {
      Laesa quantized(flat_store, dist, pivots, prec);
      BatchQueryEngine engine(quantized);
      presults = engine.Nearest(queries, &pstats);
    }
    pr.computations = pstats.distance_computations;
    pr.eliminated_fraction =
        1.0 - static_cast<double>(pstats.distance_computations) / total_cand;
    for (std::size_t i = 0; i < presults.size(); ++i) {
      if (presults[i].distance != f64_results[i].distance) {
        log << "  " << pr.precision << ": nearest distance diverged at query "
            << i << "\n";
        quantized_exact = false;
        break;
      }
    }
    log << "  precision " << pr.precision << ": eliminated fraction "
        << pr.eliminated_fraction << " (" << pr.computations
        << " computations)\n";
    precision_runs.push_back(pr);
  }

  std::cout.precision(6);
  std::cout << "{\n"
            << "  \"bench\": \"micro_sweep_kernel\",\n"
            << "  \"candidates\": " << candidates << ",\n"
            << "  \"reps\": " << reps << ",\n"
            << "  \"kernels\": [\n";
  for (std::size_t i = 0; i < micro.size(); ++i) {
    std::cout << "    {\"name\": \"" << micro[i].name << "\", \"dense_ns\": "
              << micro[i].dense_ns << ", \"packed_ns\": "
              << micro[i].packed_ns << ", \"eliminate_ns\": "
              << micro[i].eliminate_ns << "}"
              << (i + 1 < micro.size() ? "," : "") << "\n";
  }
  std::cout << "  ],\n"
            << "  \"dense_speedup\": " << dense_speedup << ",\n"
            << "  \"quantized\": [\n";
  for (std::size_t i = 0; i < quant_micro.size(); ++i) {
    std::cout << "    {\"kernel\": \"" << quant_micro[i].kernel
              << "\", \"precision\": \"" << quant_micro[i].precision
              << "\", \"dense_ns\": " << quant_micro[i].dense_ns << "}"
              << (i + 1 < quant_micro.size() ? "," : "") << "\n";
  }
  std::cout << "  ],\n"
            << "  \"u8_speedup\": " << u8_speedup << ",\n"
            << "  \"precisions\": [\n";
  for (std::size_t i = 0; i < precision_runs.size(); ++i) {
    std::cout << "    {\"precision\": \"" << precision_runs[i].precision
              << "\", \"eliminated_fraction\": "
              << precision_runs[i].eliminated_fraction
              << ", \"computations\": " << precision_runs[i].computations
              << "}" << (i + 1 < precision_runs.size() ? "," : "") << "\n";
  }
  std::cout << "  ],\n"
            << "  \"fig3\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Fig3Run& r = runs[i];
    std::cout << "    {\"kernel\": \"" << r.kernel << "\", \"flat_lazy_us\": "
              << r.flat_lazy_us << ", \"sharded_lazy_us\": "
              << r.sharded_lazy_us << ", \"flat_staged_us\": "
              << r.flat_staged_us << ", \"sharded_staged_us\": "
              << r.sharded_staged_us << ", \"computations\": "
              << r.flat_stats.distance_computations << "}"
              << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  std::cout << "  ],\n"
            << "  \"identical_results\": " << (identical ? "true" : "false")
            << ",\n"
            << "  \"kernel_speedup_ok\": "
            << (kernel_speedup_ok ? "true" : "false") << ",\n"
            << "  \"u8_speedup_ok\": " << (u8_speedup_ok ? "true" : "false")
            << ",\n"
            << "  \"quantized_exact\": "
            << (quantized_exact ? "true" : "false") << "\n}\n";
  return identical && kernel_speedup_ok && u8_speedup_ok && quantized_exact
             ? 0
             : 1;
}

}  // namespace
}  // namespace cned

int main() { return cned::Run(); }
