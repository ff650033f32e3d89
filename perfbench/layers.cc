#include "perfbench/layers.h"

#include <algorithm>
#include <limits>
#include <random>

#include "search/batch_engine.h"
#include "search/sweep_kernel.h"
#include "serve/frame.h"

namespace perfbench {
namespace {

/// Repeats `pass` (recorded as span `name`) until at least `min_passes`
/// ran and `min_seconds` elapsed; returns the pass durations in ms.
template <typename F>
std::vector<double> TimePasses(Tracer& tr, const char* name,
                               std::uint64_t request, std::size_t min_passes,
                               double min_seconds, F&& pass) {
  std::vector<double> ms;
  const Clock::time_point begin = Clock::now();
  while (ms.size() < min_passes ||
         MsBetween(begin, Clock::now()) < min_seconds * 1e3) {
    const std::uint32_t id = tr.NewId();
    const Clock::time_point t0 = Clock::now();
    pass();
    const Clock::time_point t1 = Clock::now();
    tr.Record(id, name, request, 0, t0, t1);
    ms.push_back(MsBetween(t0, t1));
  }
  return ms;
}

}  // namespace

double ProbeSearchLayers(RunContext& ctx,
                         const cned::NearestNeighborSearcher& index,
                         const cned::PivotStageSearcher& ps,
                         const cned::StringDistance& metric,
                         const std::vector<std::string>& corpus,
                         const std::vector<std::string>& queries,
                         std::size_t k, std::size_t batch_threads,
                         std::uint64_t request_base) {
  Tracer& tr = *ctx.tracer;
  Report& rep = *ctx.report;
  const std::size_t nq = queries.size();
  std::vector<double> row(ps.pivot_count());
  std::vector<std::vector<cned::NeighborResult>> seq(nq);
  std::vector<std::uint32_t> roots;
  std::vector<double> nonpivot(nq), prune(nq), seq_ms(nq);
  cned::QueryStats total;

  for (std::size_t i = 0; i < nq; ++i) {
    const std::uint64_t req = request_base + i;
    const std::uint32_t root = tr.NewId();
    const Clock::time_point t0 = Clock::now();
    cned::QueryStats st;
    {
      ScopedSpan span(tr, "search.pivot_row", req, root);
      ps.ComputePivotRow(queries[i], row.data(), &st);
    }
    {
      ScopedSpan span(tr, "search.sweep", req, root);
      seq[i] = ps.KNearestWithPivotRow(queries[i], k, row.data(), &st);
    }
    const Clock::time_point t1 = Clock::now();
    tr.Record(root, "probe.search", req, 0, t0, t1);
    roots.push_back(root);
    seq_ms[i] = MsBetween(t0, t1);
    total += st;
    nonpivot[i] =
        static_cast<double>(st.distance_computations - st.pivot_computations);
    prune[i] = 1.0 - static_cast<double>(st.distance_computations) /
                         static_cast<double>(corpus.size());
  }

  // The batch engine over the same queries must answer exactly as the
  // sequential two-stage loop did.
  cned::BatchQueryEngine::Options opt;
  opt.threads = batch_threads;
  opt.pivot_stage = true;
  const cned::BatchQueryEngine engine(index, opt);
  bool batch_ok = true;
  const std::vector<double> batch_ms =
      TimePasses(tr, "search.batch", request_base + nq, 3, 0.0, [&] {
        const auto got = engine.KNearest(queries, k);
        for (std::size_t i = 0; i < nq; ++i) {
          batch_ok = batch_ok && SameNeighbors(got[i], seq[i]);
        }
      });
  if (!batch_ok) rep.Wrong("BatchQueryEngine differs from the sequential loop");

  // DistanceBounded on sampled (query, prototype) pairs, bounded by the
  // query's reference k-th distance.
  std::mt19937_64 rng(ctx.seed * 7919 + 17);
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  std::vector<double> bounds;
  const std::size_t per_query = 16;
  for (std::size_t i = 0; i < nq; ++i) {
    const double bound = seq[i].empty()
                             ? std::numeric_limits<double>::infinity()
                             : seq[i].back().distance;
    for (std::size_t j = 0; j < per_query; ++j) {
      pairs.emplace_back(i, rng() % corpus.size());
      bounds.push_back(bound);
    }
  }
  double sink = 0.0;
  const std::vector<double> eval_ms =
      TimePasses(tr, "distances.eval_pass", request_base + nq + 1, 3, 0.2, [&] {
        for (std::size_t p = 0; p < pairs.size(); ++p) {
          sink += metric.DistanceBounded(queries[pairs[p].first],
                                         corpus[pairs[p].second], bounds[p]);
        }
      });
  if (sink < 0.0) rep.Wrong("negative distance");

  const double eval_ns =
      Median(eval_ms) * 1e6 / static_cast<double>(pairs.size());
  const std::vector<double> sweep_ms =
      tr.ChildDurationsMs("search.sweep", roots);
  const std::vector<double> row_ms =
      tr.ChildDurationsMs("search.pivot_row", roots);
  std::vector<double> self_us(nq);
  for (std::size_t i = 0; i < nq; ++i) {
    self_us[i] = sweep_ms[i] * 1e3 - nonpivot[i] * eval_ns * 1e-3;
  }
  double seq_total = 0.0;
  for (double ms : seq_ms) seq_total += ms;

  const double dc = static_cast<double>(total.distance_computations);
  rep.Add("distances.eval_ns", "ns", eval_ns, pairs.size() * eval_ms.size());
  rep.Add("distances.evals_per_query", "count", dc / static_cast<double>(nq),
          nq);
  rep.Add("distances.abandon_frac", "fraction",
          static_cast<double>(total.bounded_abandons) / dc, nq);
  rep.Add("search.pivot_row_us", "us", Median(row_ms) * 1e3, nq);
  rep.Add("search.pivot_frac", "fraction",
          static_cast<double>(total.pivot_computations) / dc, nq);
  double prune_sum = 0.0;
  for (double p : prune) prune_sum += p;
  rep.Add("search.prune_frac", "fraction",
          prune_sum / static_cast<double>(nq), nq);
  rep.Add("search.sweep_us", "us", Median(sweep_ms) * 1e3, nq);
  rep.Add("search.sweep_self_us", "us", Median(self_us), nq);
  rep.Add("search.batch_scaling", "ratio", seq_total / Median(batch_ms),
          batch_ms.size());
  return seq_total / static_cast<double>(nq);
}

void ProbeSweepKernels(RunContext& ctx, std::size_t n) {
  Tracer& tr = *ctx.tracer;
  const cned::SweepKernels& kern = cned::ActiveSweepKernels();
  // A span covers `reps` calls, so that small slabs are not timed at the
  // clock's resolution. Compaction works in place, so each of its calls
  // gets its own copy of the slab, refilled outside the span.
  const std::size_t reps = std::max<std::size_t>(1, 65536 / n);
  std::mt19937_64 rng(ctx.seed * 104729 + 3);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<double> row(n), lower0(n);
  std::vector<std::uint32_t> idx0(n);
  for (std::size_t i = 0; i < n; ++i) {
    row[i] = u(rng);
    lower0[i] = u(rng);
    idx0[i] = static_cast<std::uint32_t>(i);
  }
  std::vector<double> lower(lower0);
  const double d = u(rng);
  const std::vector<double> dense_ms =
      TimePasses(tr, "sweep_kernel.update_dense", 0, 20, 0.1, [&] {
        for (std::size_t r = 0; r < reps; ++r) {
          kern.update_lower_dense(d, row.data(), lower.data(), n);
        }
      });

  std::vector<double> slab_lower(reps * n);
  std::vector<std::uint32_t> slab_idx(reps * n);
  std::vector<double> compact_ms;
  std::size_t survivors = 0;
  const Clock::time_point begin = Clock::now();
  while (compact_ms.size() < 20 || MsBetween(begin, Clock::now()) < 100.0) {
    for (std::size_t r = 0; r < reps; ++r) {
      std::copy(lower0.begin(), lower0.end(), slab_lower.begin() + r * n);
      std::copy(idx0.begin(), idx0.end(), slab_idx.begin() + r * n);
    }
    const std::uint32_t id = tr.NewId();
    const Clock::time_point t0 = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
      survivors = kern.eliminate_and_compact(slab_idx.data() + r * n,
                                             slab_lower.data() + r * n, n,
                                             0xFFFFFFFFu, 0.5)
                      .live;
    }
    const Clock::time_point t1 = Clock::now();
    tr.Record(id, "sweep_kernel.compact", 0, 0, t0, t1);
    compact_ms.push_back(MsBetween(t0, t1));
  }
  if (survivors == 0 || survivors == n) {
    ctx.report->Wrong("sweep kernel compaction kept all or nothing");
  }
  const double per = 1e6 / static_cast<double>(n * reps);
  ctx.report->Add("sweep_kernel.update_dense_ns", "ns", Median(dense_ms) * per,
                  dense_ms.size() * reps);
  ctx.report->Add("sweep_kernel.compact_ns", "ns", Median(compact_ms) * per,
                  compact_ms.size() * reps);
}

void ProbeFrameCodec(RunContext& ctx, std::size_t begin_payload,
                     double rounds) {
  Tracer& tr = *ctx.tracer;
  const std::size_t sizes[3] = {begin_payload, 16, 12};
  const double weights[3] = {1.0, rounds, rounds};
  const std::size_t reps = 2000;
  std::mt19937_64 rng(ctx.seed * 31 + 5);
  double enc_ns = 0.0, dec_ns = 0.0, weight = 0.0;
  std::size_t samples = 0;
  for (int s = 0; s < 3; ++s) {
    std::vector<char> payload(sizes[s]);
    for (char& c : payload) c = static_cast<char>(rng());
    std::vector<char> out;
    const std::vector<double> enc_ms =
        TimePasses(tr, "serve.frame_encode", s, 5, 0.02, [&] {
          for (std::size_t r = 0; r < reps; ++r) {
            out.clear();
            cned::EncodeFrame(&out, cned::FrameType::kEval, 7, 9,
                              payload.data(), payload.size());
          }
        });
    cned::FrameBuffer fb;
    cned::Frame frame;
    bool ok = true;
    const std::vector<double> dec_ms =
        TimePasses(tr, "serve.frame_decode", s, 5, 0.02, [&] {
          for (std::size_t r = 0; r < reps; ++r) {
            fb.Append(out.data(), out.size());
            ok = ok && fb.Pop(&frame) == cned::FrameBuffer::Next::kFrame;
          }
        });
    if (!ok || frame.payload != payload) {
      ctx.report->Wrong("frame round trip changed the payload");
    }
    enc_ns += weights[s] * Median(enc_ms) * 1e6 / reps;
    dec_ns += weights[s] * Median(dec_ms) * 1e6 / reps;
    weight += weights[s];
    samples += enc_ms.size() * reps;
  }
  ctx.report->Add("serve.frame_encode_ns", "ns", enc_ns / weight, samples);
  ctx.report->Add("serve.frame_decode_ns", "ns", dec_ns / weight, samples);
}

}  // namespace perfbench
