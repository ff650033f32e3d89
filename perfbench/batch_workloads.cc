// The in-process workloads: dict_batch (a large dictionary under dC) and
// digits_batch (digit contours under dC,h, the paper's Fig. 4 setting).
// Both run BatchQueryEngine with its pivot stage over a flat Laesa; no
// serve layer runs.

#include <algorithm>
#include <atomic>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "datasets/perturb.h"
#include "distances/registry.h"
#include "perfbench/bench.h"
#include "perfbench/layers.h"
#include "search/batch_engine.h"
#include "search/laesa.h"
#include "strings/alphabet.h"

namespace perfbench {
namespace {

using cned::NeighborResult;

cned::Dataset MakeCorpus(const Params& p, bool digits) {
  return digits ? cned::bench::MakeDigits(p.Size("corpus") / 10,
                                          p.Size("corpus_seed"))
                : cned::bench::MakeDictionary(p.Size("corpus"),
                                              p.Size("corpus_seed"));
}

/// The sequential two-stage loop (ComputePivotRow + KNearestWithPivotRow)
/// per query, spread over `threads` threads that each run it one query at
/// a time. Gives the reference answers and each query's latency.
void SequentialLoop(const cned::Laesa& index,
                    const std::vector<std::string>& queries, std::size_t k,
                    std::size_t threads, Tracer& tr, std::uint64_t request_base,
                    std::vector<std::vector<NeighborResult>>* results,
                    std::vector<double>* ms) {
  results->assign(queries.size(), {});
  ms->assign(queries.size(), 0.0);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      std::vector<double> row(index.pivot_count());
      for (std::size_t i; (i = next.fetch_add(1)) < queries.size();) {
        const std::uint64_t req = request_base + i;
        const std::uint32_t root = tr.NewId();
        const Clock::time_point t0 = Clock::now();
        {
          ScopedSpan span(tr, "search.pivot_row", req, root);
          index.ComputePivotRow(queries[i], row.data());
        }
        {
          ScopedSpan span(tr, "search.sweep", req, root);
          (*results)[i] = index.KNearestWithPivotRow(queries[i], k, row.data());
        }
        const Clock::time_point t1 = Clock::now();
        tr.Record(root, "read", req, 0, t0, t1);
        (*ms)[i] = MsBetween(t0, t1);
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

}  // namespace

int RunBatch(RunContext& ctx, bool digits) {
  const Params& p = ctx.params;
  Report& rep = *ctx.report;
  Tracer& tr = *ctx.tracer;
  const std::size_t k = p.Size("k");
  const std::size_t threads = p.Size("threads");
  const std::size_t nq = p.Size("queries");

  // Set-up is the index build over a corpus generated beforehand, repeated;
  // the last index is kept.
  const cned::Dataset corpus = MakeCorpus(p, digits);
  std::unique_ptr<cned::Laesa> built;
  std::vector<double> setup_s;
  const std::size_t repeats = ctx.trace ? 1 : p.Size("setup_repeats");
  for (std::size_t a = 0; a < repeats; ++a) {
    built.reset();
    const Clock::time_point t0 = Clock::now();
    built = std::make_unique<cned::Laesa>(
        corpus.strings, cned::MakeDistance(p.Str("distance")),
        p.Size("pivots"));
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
  }
  const cned::Laesa& index = *built;

  // The query set is part of the workload; the seed orders the batch. A
  // handful of expensive queries dominates the mean cost, so a fresh set
  // per seed would move goodput by more than the system does.
  std::vector<std::string> queries;
  if (digits) {
    queries = cned::bench::MakeDigits((nq + 9) / 10, p.Size("queries_seed"))
                  .strings;
    queries.resize(nq);
  } else {
    cned::Rng rng(p.Size("queries_seed"));
    queries = cned::MakeQueries(corpus.strings, nq, 2,
                                cned::Alphabet::Latin(), rng);
  }
  cned::Rng order(ctx.seed * 1000 + 2);
  order.Shuffle(queries);

  Tracer untraced(false);
  const Clock::time_point measure_start = Clock::now();
  std::vector<std::vector<NeighborResult>> want;
  std::vector<double> read_ms;
  SequentialLoop(index, queries, k, threads, untraced, 0, &want, &read_ms);

  if (!ctx.trace) {
    // Read latency: every query of every pass of the loop, so that a slow
    // pass shows in the tail.
    std::vector<double> latency(read_ms);
    std::size_t wrong = 0;
    for (std::size_t r = 1; r < p.Size("latency_passes"); ++r) {
      std::vector<std::vector<NeighborResult>> again;
      SequentialLoop(index, queries, k, threads, untraced, 0, &again, &read_ms);
      latency.insert(latency.end(), read_ms.begin(), read_ms.end());
      for (std::size_t i = 0; i < nq; ++i) {
        wrong += !SameNeighbors(again[i], want[i]);
      }
    }

    // The batch engine, over and over on the same batch, for the rest of
    // the run's measured seconds; every answer is checked against the loop.
    cned::BatchQueryEngine::Options opt;
    opt.threads = threads;
    opt.pivot_stage = true;
    const cned::BatchQueryEngine engine(index, opt);
    std::size_t good = 0;
    std::vector<double> pass_qps;
    do {
      const Clock::time_point t0 = Clock::now();
      const auto got = engine.KNearest(queries, k);
      const double pass_s = MsBetween(t0, Clock::now()) / 1e3;
      std::size_t pass_good = 0;
      for (std::size_t i = 0; i < nq; ++i) {
        const bool ok = SameNeighbors(got[i], want[i]);
        rep.Op(ok, !ok);
        pass_good += ok;
        wrong += !ok;
      }
      good += pass_good;
      pass_qps.push_back(static_cast<double>(pass_good) / pass_s);
    } while (pass_qps.size() < 3 ||
             MsBetween(measure_start, Clock::now()) < ctx.seconds * 1e3);
    if (wrong > 0) {
      rep.Wrong(std::to_string(wrong) +
                " batch answers differ from the sequential loop");
    }
    rep.Add("setup_s", "s", Median(setup_s), setup_s.size());
    rep.Add("read_p50_ms", "ms", Quantile(latency, 0.5), latency.size());
    rep.Add("read_p99_ms", "ms", Quantile(latency, 0.99), latency.size());
    // Goodput is the median pass; the fastest is printed beside it.
    rep.Add("goodput_qps", "qps", Median(pass_qps), pass_qps.size());
    rep.Add("batch_qps", "qps", Median(pass_qps), pass_qps.size());
    rep.Add("batch_best_qps", "qps",
            *std::max_element(pass_qps.begin(), pass_qps.end()),
            pass_qps.size());
  } else {
    // The same loop traced: its p50 against the untraced loop's gives the
    // tracing overhead.
    std::vector<std::vector<NeighborResult>> again;
    std::vector<double> traced_ms;
    SequentialLoop(index, queries, k, threads, tr, 0, &again, &traced_ms);
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < nq; ++i) {
      const bool ok = SameNeighbors(again[i], want[i]);
      rep.Op(ok, !ok);
      wrong += !ok;
    }
    if (wrong > 0) rep.Wrong("traced loop differs from the untraced loop");
    const double t_p50 = Quantile(traced_ms, 0.5);
    const double u_p50 = Quantile(read_ms, 0.5);
    rep.Add("trace.read_p50_ms", "ms", t_p50, traced_ms.size());
    rep.Add("trace.overhead_frac", "fraction", (t_p50 - u_p50) / u_p50,
            traced_ms.size());

    // Layer sum: the first queries of the batch, each timed through its
    // pivot row and sweep one at a time on one thread, against the same
    // queries' reads in the traced loop, `threads` at a time. The
    // remainder is what running the loops side by side adds.
    const std::size_t probes = std::min(p.Size("probe_queries"), nq);
    const std::vector<std::string> sample(queries.begin(),
                                          queries.begin() + probes);
    const double layer_ms =
        ProbeSearchLayers(ctx, index, index, index.pivot_distance(),
                          corpus.strings, sample, k, threads, 3000000);
    ProbeSweepKernels(ctx, corpus.size());
    const double loop_ms =
        Mean(std::vector<double>(traced_ms.begin(), traced_ms.begin() + probes));
    rep.Add("trace.sample_read_ms", "ms", loop_ms, probes);
    rep.Add("trace.layer_sum_ms", "ms", layer_ms, probes);
    rep.Add("trace.unattributed_frac", "fraction", (loop_ms - layer_ms) / loop_ms,
            probes);
  }
  rep.Add("fail_frac", "fraction",
          static_cast<double>(rep.failed()) /
              static_cast<double>(std::max<std::size_t>(rep.attempted(), 1)),
          rep.attempted());
  rep.Add("mean_string_length", "symbols", corpus.MeanLength(), corpus.size());
  built.reset();
  rep.Add("rss_mb", "MB", PeakRssMb(), 1);
  return 0;
}

}  // namespace perfbench
