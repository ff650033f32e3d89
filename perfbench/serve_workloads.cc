// The serving workloads: dict_serve (read-only, open-loop ladder) and
// dict_serve_rw (reads at one rate beside a Poisson stream of Insert and
// Remove). Both drive ServeEngine over a ServeRouter with S shards of R
// replicas each, forked from this process.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "datasets/perturb.h"
#include "datasets/sharded_prototype_store.h"
#include "distances/registry.h"
#include "perfbench/bench.h"
#include "perfbench/layers.h"
#include "search/sharded_laesa.h"
#include "serve/engine.h"
#include "serve/router.h"
#include "serve/shard_snapshot.h"
#include "strings/alphabet.h"

namespace perfbench {
namespace {

using cned::NeighborResult;
using cned::QueryStats;
using cned::ServeResult;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Share of a traced run's measured seconds given to each of its two
/// segments at the operating rate (untraced, then traced).
constexpr double kTraceSegmentFrac = 0.4;

/// One built serving world: in-process index, snapshot, router.
struct ServeWorld {
  std::unique_ptr<cned::ShardedPrototypeStore> store;
  std::unique_ptr<cned::ShardedLaesa> index;
  std::string dir;
  std::unique_ptr<cned::ServeRouter> router;

  ~ServeWorld() {
    router.reset();  // stops and reaps the workers
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
};

std::unique_ptr<ServeWorld> BuildWorld(const RunContext& ctx,
                                       const std::vector<std::string>& corpus,
                                       int attempt) {
  const Params& p = ctx.params;
  auto w = std::make_unique<ServeWorld>();
  w->store =
      std::make_unique<cned::ShardedPrototypeStore>(corpus, p.Size("shards"));
  w->index = std::make_unique<cned::ShardedLaesa>(
      *w->store, cned::MakeDistance(p.Str("distance")), p.Size("pivots"));
  w->dir = ctx.work_dir + "/snapshot-" + std::to_string(attempt);
  std::filesystem::create_directories(w->dir);
  cned::SaveServingSnapshot(*w->index, w->dir);
  cned::ServeOptions opt;
  opt.distance = p.Str("distance");
  opt.replicas = static_cast<int>(p.Size("replicas"));
  w->router = std::make_unique<cned::ServeRouter>(w->dir, opt);
  return w;
}

bool SameAnswer(const ServeResult& got, const std::vector<NeighborResult>& want,
                const QueryStats& want_stats) {
  return !got.partial && !got.shed && got.stats == want_stats &&
         SameNeighbors(got.neighbors, want);
}

/// Feeds exactly one job to DriveSweeps: the fast multiplexed sweep path
/// for a single query, with the bench owning the feed.
class OneJobFeed : public cned::SweepFeed {
 public:
  OneJobFeed(std::string_view query, std::size_t k, const double* row) {
    job_.query = query;
    job_.k = k;
    job_.row = row;
  }
  bool Next(cned::SweepJob* out) override {
    if (taken_) return false;
    *out = job_;
    taken_ = true;
    return true;
  }
  bool Finished() override { return taken_; }
  void Deliver(std::uint64_t, ServeResult res, bool bailed) override {
    result = std::move(res);
    this->bailed = bailed;
  }

  ServeResult result;
  bool bailed = false;

 private:
  cned::SweepJob job_;
  bool taken_ = false;
};

/// The pre-generated write stream of dict_serve_rw and the live-set mirror
/// it implies: id `i` is live at version v (v writes acknowledged) iff
/// born[i] <= v < died[i].
struct WriteStream {
  struct Op {
    bool insert = false;
    std::uint64_t id = 0;
    std::string s;
  };
  std::vector<Op> ops;
  std::vector<std::string> strings;  // by id: base corpus, then inserts
  std::vector<std::uint64_t> born, died;

  bool Live(std::size_t id, std::uint64_t v) const {
    return born[id] <= v && v < died[id];
  }
};

WriteStream MakeWrites(const std::vector<std::string>& base, std::size_t count,
                       double insert_frac, std::size_t k, std::uint64_t seed) {
  WriteStream w;
  w.strings = base;
  w.born.assign(base.size(), 0);
  w.died.assign(base.size(), std::numeric_limits<std::uint64_t>::max());
  std::vector<std::uint64_t> live(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) live[i] = i;
  cned::Rng rng(seed);
  for (std::size_t j = 0; j < count; ++j) {
    WriteStream::Op op;
    const std::uint64_t version = j + 1;
    if (rng.Uniform() < insert_frac || live.size() <= 2 * k) {
      op.insert = true;
      op.id = w.strings.size();
      op.s = cned::PerturbString(base[rng.Index(base.size())], 2,
                                 cned::Alphabet::Latin(), rng);
      w.strings.push_back(op.s);
      w.born.push_back(version);
      w.died.push_back(std::numeric_limits<std::uint64_t>::max());
      live.push_back(op.id);
    } else {
      const std::size_t at = rng.Index(live.size());
      op.id = live[at];
      live[at] = live.back();
      live.pop_back();
      w.died[op.id] = version;
    }
    w.ops.push_back(std::move(op));
  }
  return w;
}

/// One scheduled read and what became of it.
struct ReadRec {
  double at_s = 0.0;  // scheduled send, from the segment start
  std::uint32_t query = 0;
  int rung = -1;  // -1: warm-up, not measured
  // From due to done; due to sent; a free sender's delay.
  double latency_ms = kInf, wait_ms = 0.0, late_ms = 0.0;
  bool answered = false;  // neither shed nor partial
  bool shed = false, partial = false, wrong = false;
  std::uint64_t lo = 0, hi = 0;  // write versions the read may have seen
  std::vector<NeighborResult> neighbors;
  QueryStats stats;
  std::size_t failovers = 0, hedged = 0, evicted = 0;
};

struct WriteRec {
  double at_s = 0.0;
  double latency_ms = kInf;
  bool ok = false;
};

/// Shared write-version counters: `started` before a write is issued,
/// `done` after it is acknowledged. A read issued when done == lo and
/// finished when started == hi saw some version in [lo, hi].
struct Versions {
  std::atomic<std::uint64_t> started{0}, done{0};
};

/// Drives one segment: `senders` threads take scheduled reads in order,
/// each sleeping until its read is due; a single writer thread issues
/// `writes` (ops from `op_begin` on) at their scheduled times until the
/// reads are done (`writes` is cut to the ones issued). Read and write
/// latencies are measured from the scheduled send.
void RunSegment(cned::ServeEngine& engine, cned::ServeRouter& router,
                const std::vector<std::string>& pool, std::size_t k,
                std::size_t senders, std::vector<ReadRec>& reads,
                const WriteStream* stream, std::size_t op_begin,
                std::vector<WriteRec>& writes, Versions& versions,
                Tracer& tr, std::uint64_t request_base) {
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  const auto due_of = [&](double at_s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(at_s));
  };
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> readers{senders};
  auto sender = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= reads.size()) {
        readers.fetch_sub(1);
        return;
      }
      ReadRec& r = reads[i];
      const Clock::time_point ticket = Clock::now();
      const Clock::time_point due = due_of(r.at_s);
      std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      r.lo = versions.done.load();
      const std::uint32_t call = tr.NewId();
      ServeResult res = engine.KNearest(pool[r.query], k);
      const Clock::time_point end = Clock::now();
      r.hi = versions.started.load();
      if (tr.enabled()) {
        const std::uint32_t root = tr.NewId();
        tr.Record(tr.NewId(), "gen.wait", request_base + i, root, due, sent);
        tr.Record(call, "serve.engine.KNearest", request_base + i, root, sent,
                  end);
        tr.Record(root, "read", request_base + i, 0, due, end);
      }
      r.wait_ms = MsBetween(due, sent);
      r.late_ms = MsBetween(std::max(due, ticket), sent);
      r.shed = res.shed;
      r.partial = res.partial;
      r.answered = !res.shed && !res.partial;
      if (r.answered) r.latency_ms = MsBetween(due, end);
      r.failovers = res.failovers;
      r.hedged = res.hedged_evals;
      r.evicted = res.replicas_evicted;
      r.neighbors = std::move(res.neighbors);
      r.stats = res.stats;
    }
  };
  std::size_t issued = 0;
  auto writer = [&] {
    for (; issued < writes.size(); ++issued) {
      const std::size_t j = issued;
      WriteRec& w = writes[j];
      const WriteStream::Op& op = stream->ops[op_begin + j];
      const Clock::time_point due = due_of(w.at_s);
      while (readers.load() > 0 && Clock::now() < due) {
        std::this_thread::sleep_until(
            std::min(due, Clock::now() + std::chrono::milliseconds(5)));
      }
      if (readers.load() == 0) return;
      versions.started.fetch_add(1);
      const std::uint32_t call = tr.NewId();
      const Clock::time_point sent = Clock::now();
      w.ok = op.insert ? router.Insert(op.s) == op.id : router.Remove(op.id);
      const Clock::time_point end = Clock::now();
      versions.done.fetch_add(1);
      if (tr.enabled()) {
        const std::uint32_t root = tr.NewId();
        tr.Record(call, op.insert ? "serve.insert" : "serve.remove",
                  request_base + reads.size() + j, root, sent, end);
        tr.Record(root, "write", request_base + reads.size() + j, 0, due, end);
      }
      w.latency_ms = MsBetween(due, end);
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < senders; ++s) threads.emplace_back(sender);
  if (!writes.empty()) threads.emplace_back(writer);
  for (std::thread& t : threads) t.join();
  writes.resize(issued);
}

/// Brute-force check of dict_serve_rw reads: the answer must be the exact
/// top-k distance profile over the mirror's live set at some version the
/// read may have seen, and every returned id must be live there with its
/// true distance.
class MirrorChecker {
 public:
  MirrorChecker(const WriteStream& stream, const cned::StringDistance& metric,
                const std::vector<std::string>& pool, std::size_t k)
      : stream_(stream), metric_(metric), pool_(pool), k_(k),
        dist_(pool.size()) {}

  /// Distances from every pool query the reads used to every id born by
  /// `last_version`, the last write acknowledged.
  void Prepare(const std::vector<std::vector<ReadRec>*>& segments,
               std::uint64_t last_version) {
    for (const std::vector<ReadRec>* seg : segments) {
      for (const ReadRec& r : *seg) {
        std::vector<double>& d = dist_[r.query];
        if (!d.empty()) continue;
        d.assign(stream_.strings.size(), kInf);
        for (std::size_t id = 0; id < d.size(); ++id) {
          if (stream_.born[id] <= last_version) {
            d[id] = metric_.Distance(pool_[r.query], stream_.strings[id]);
          }
        }
      }
    }
  }

  bool Check(const ReadRec& r) const {
    for (std::uint64_t v = r.lo; v <= r.hi; ++v) {
      if (CheckAt(r, v)) return true;
    }
    return false;
  }

 private:
  bool CheckAt(const ReadRec& r, std::uint64_t v) const {
    const std::vector<double>& d = dist_[r.query];
    std::vector<double> live;
    for (std::size_t id = 0; id < d.size(); ++id) {
      if (stream_.Live(id, v)) live.push_back(d[id]);
    }
    const std::size_t want = std::min(k_, live.size());
    if (r.neighbors.size() != want) return false;
    std::partial_sort(live.begin(), live.begin() + want, live.end());
    for (std::size_t i = 0; i < want; ++i) {
      const NeighborResult& nb = r.neighbors[i];
      if (nb.index >= d.size() || !stream_.Live(nb.index, v) ||
          nb.distance != d[nb.index] || nb.distance != live[i]) {
        return false;
      }
    }
    return true;
  }

  const WriteStream& stream_;
  const cned::StringDistance& metric_;
  const std::vector<std::string>& pool_;
  const std::size_t k_;
  std::vector<std::vector<double>> dist_;
};

/// Reads of one schedule: Poisson arrivals at each (rate, seconds) segment
/// in turn, queries drawn zipf-skewed from the pool.
std::vector<ReadRec> Schedule(const std::vector<std::pair<double, double>>& segs,
                              const std::vector<int>& rungs, const Zipf& zipf,
                              std::mt19937_64& rng) {
  std::vector<ReadRec> out;
  double offset = 0.0;
  for (std::size_t s = 0; s < segs.size(); ++s) {
    for (double t : PoissonArrivals(segs[s].first, segs[s].second, rng)) {
      ReadRec r;
      r.at_s = offset + t;
      r.query = static_cast<std::uint32_t>(zipf(rng));
      r.rung = rungs[s];
      out.push_back(std::move(r));
    }
    offset += segs[s].second;
  }
  return out;
}

std::vector<WriteRec> WriteSchedule(double rate, double seconds,
                                    std::mt19937_64& rng) {
  std::vector<WriteRec> out;
  for (double t : PoissonArrivals(rate, seconds, rng)) {
    WriteRec w;
    w.at_s = t;
    out.push_back(w);
  }
  return out;
}

std::vector<double> Latencies(const std::vector<ReadRec>& reads, int rung) {
  std::vector<double> out;
  for (const ReadRec& r : reads) {
    if (r.rung == rung) out.push_back(r.latency_ms);
  }
  return out;
}

}  // namespace

int RunDictServe(RunContext& ctx, bool with_writes) {
  const Params& p = ctx.params;
  Report& rep = *ctx.report;
  Tracer& tr = *ctx.tracer;
  const std::size_t k = p.Size("k");
  const double slo_ms = p.Num("slo_ms");
  const std::size_t senders = p.Size("senders");

  // The whole serving stack (senders, the engine thread, forked workers) runs
  // on one CPU. On a shared virtual machine a chain of cross-CPU wake-ups
  // per router round makes latency follow the neighbours' load; on one CPU
  // the same chain is plain context switches.
  if (!PinToFirstCpu()) {
    std::cerr << "perfbench: could not pin to one CPU\n";
    return 4;
  }

  // Set-up: index, snapshot and router over a corpus generated beforehand,
  // repeated; the last world is kept.
  const cned::Dataset dict =
      cned::bench::MakeDictionary(p.Size("corpus"), p.Size("corpus_seed"));
  std::unique_ptr<ServeWorld> world;
  std::vector<double> setup_s;
  const std::size_t repeats = ctx.trace ? 1 : p.Size("setup_repeats");
  for (std::size_t a = 0; a < repeats; ++a) {
    world.reset();
    const Clock::time_point t0 = Clock::now();
    world = BuildWorld(ctx, dict.strings, static_cast<int>(a));
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
  }
  cned::ServeRouter& router = *world->router;
  const cned::ShardedLaesa& index = *world->index;

  cned::Rng pool_rng(p.Size("pool_seed"));
  const std::vector<std::string> pool = cned::MakeQueries(
      dict.strings, p.Size("query_pool"), 2, cned::Alphabet::Latin(), pool_rng);
  const Zipf zipf(pool.size(), p.Num("zipf_s"));

  // In-process reference: the row path every healthy served read must
  // match bit for bit, stats included.
  const std::size_t np = index.pivot_count();
  std::vector<std::vector<NeighborResult>> want(pool.size());
  std::vector<QueryStats> want_stats(pool.size());
  {
    std::vector<double> row(np);
    for (std::size_t i = 0; i < pool.size(); ++i) {
      index.ComputePivotRow(pool[i], row.data(), &want_stats[i]);
      want[i] = index.KNearestWithPivotRow(pool[i], k, row.data(),
                                           &want_stats[i]);
    }
  }

  const double warmup_s = p.Num("warmup_s");
  WriteStream stream;
  if (with_writes) {
    const auto count = static_cast<std::size_t>(std::ceil(
        p.Num("write_qps") * (warmup_s + ctx.seconds) * 1.5 + 64.0));
    stream = MakeWrites(dict.strings, count, p.Num("insert_frac"), k,
                        ctx.seed * 1000 + 4);
  }

  // Quiescent layer probes (traced runs only), before any write lands.
  double row_ms = 0.0, fast_ms = 0.0, robust_ms = 0.0, inproc_ms = 0.0;
  double rounds = 0.0;
  if (ctx.trace) {
    const std::size_t probes = std::min(p.Size("probe_queries"), pool.size());
    const std::vector<std::string>& pivots = router.pivot_strings();
    std::vector<std::uint32_t> roots;
    std::vector<double> round_counts;
    for (std::size_t i = 0; i < probes; ++i) {
      const std::uint64_t req = 2000000 + i;
      const std::uint32_t root = tr.NewId();
      const Clock::time_point t0 = Clock::now();
      std::vector<double> row(pivots.size());
      {
        ScopedSpan span(tr, "serve.row", req, root);
        for (std::size_t q = 0; q < pivots.size(); ++q) {
          row[q] = router.metric().Distance(pool[i], pivots[q]);
        }
      }
      QueryStats in_stats;
      std::vector<NeighborResult> in_res;
      {
        ScopedSpan span(tr, "serve.inproc_sweep", req, root);
        in_res = index.KNearestWithPivotRow(pool[i], k, row.data(), &in_stats);
      }
      OneJobFeed feed(pool[i], k, row.data());
      {
        ScopedSpan span(tr, "serve.fast_sweep", req, root);
        router.DriveSweeps(feed, 1);
      }
      ServeResult robust;
      {
        ScopedSpan span(tr, "serve.robust_sweep", req, root);
        robust = router.KNearestWithRow(pool[i], k, row);
      }
      ServeResult lazy;
      {
        ScopedSpan span(tr, "serve.lazy", req, root);
        lazy = router.KNearest(pool[i], k);
      }
      bool pinged = false;
      {
        ScopedSpan span(tr, "serve.ping", req, root);
        pinged = router.PingAll();
      }
      tr.Record(root, "probe.serve", req, 0, t0, Clock::now());
      roots.push_back(root);

      QueryStats lazy_stats;
      const std::vector<NeighborResult> lazy_want =
          index.KNearest(pool[i], k, &lazy_stats);
      const bool ok = !feed.bailed &&
                      SameAnswer(feed.result, want[i], want_stats[i]) &&
                      SameAnswer(robust, want[i], want_stats[i]) &&
                      SameAnswer(lazy, lazy_want, lazy_stats) && pinged;
      rep.Op(ok, !ok);
      if (!ok) rep.Wrong("serve probe differs from the in-process index");
      round_counts.push_back(static_cast<double>(
          robust.stats.distance_computations - robust.stats.pivot_computations));
    }
    const auto med = [&](const char* name) {
      return Median(tr.ChildDurationsMs(name, roots));
    };
    row_ms = med("serve.row");
    inproc_ms = med("serve.inproc_sweep");
    fast_ms = med("serve.fast_sweep");
    robust_ms = med("serve.robust_sweep");
    rounds = Median(round_counts);
    rep.Add("serve.row_us", "us", row_ms * 1e3, probes);
    rep.Add("serve.fast_sweep_ms", "ms", fast_ms, probes);
    rep.Add("serve.robust_sweep_ms", "ms", robust_ms, probes);
    rep.Add("serve.lazy_ms", "ms", med("serve.lazy"), probes);
    rep.Add("serve.inproc_sweep_ms", "ms", inproc_ms, probes);
    rep.Add("serve.rounds_per_query", "count", rounds, probes);
    rep.Add("serve.transport_us_per_round", "us",
            (fast_ms - inproc_ms) * 1e3 / std::max(rounds, 1.0), probes);
    rep.Add("serve.ping_us", "us", med("serve.ping") * 1e3, probes);

    const std::vector<std::string> sample(pool.begin(), pool.begin() + probes);
    ProbeSearchLayers(ctx, index, index, router.metric(), dict.strings, sample,
                      k, senders, 3000000);
    ProbeSweepKernels(ctx, dict.size());
    std::size_t qlen = 0;
    for (const std::string& q : sample) qlen += q.size();
    ProbeFrameCodec(ctx, 4 + qlen / sample.size() + 8 + 8 + 8 * np, rounds);
  }

  cned::ServeEngineOptions eng_opt;
  eng_opt.max_batch = p.Size("max_batch");
  eng_opt.max_inflight = p.Size("max_inflight");
  eng_opt.max_queue = 4096;
  // Overload would shed at admission; the workloads stay below the knee,
  // so a healthy run never comes near this.
  eng_opt.admission_timeout_ms = 60000;
  std::unique_ptr<cned::ServeEngine> engine =
      std::make_unique<cned::ServeEngine>(router, eng_opt);
  std::mt19937_64 sched_rng(ctx.seed * 1000 + 3);

  // The schedule: a warm-up at the operating rate, then the measured rungs.
  // dict_serve climbs the ladder, each rate for its share of the run (the
  // operating rate gets the largest share, so its p99 rests on enough
  // reads); dict_serve_rw reads at one rate. A traced run measures the
  // operating rate twice, untraced then traced: the difference is the
  // tracing overhead.
  const double op_rate =
      with_writes ? p.Num("read_qps") : p.Num("operating_qps");
  std::vector<double> rates = {op_rate};
  std::vector<double> rung_s = {ctx.seconds};
  if (ctx.trace) {
    rung_s = {ctx.seconds * kTraceSegmentFrac};
  } else if (!with_writes) {
    rates = p.List("rates_qps");
    const std::vector<double> share = p.List("rung_share");
    if (share.size() != rates.size()) {
      throw std::invalid_argument("rung_share and rates_qps differ in length");
    }
    rung_s.clear();
    for (double s : share) rung_s.push_back(ctx.seconds * s);
  }
  int op_rung = 0;
  std::vector<std::pair<double, double>> segs = {{op_rate, warmup_s}};
  std::vector<int> rungs = {-1};
  double schedule_s = warmup_s;
  for (std::size_t r = 0; r < rates.size(); ++r) {
    if (rates[r] == op_rate) op_rung = static_cast<int>(r);
    segs.push_back({rates[r], rung_s[r]});
    rungs.push_back(static_cast<int>(r));
    schedule_s += rung_s[r];
  }

  // Each segment's reads come from `senders` threads (one fewer beside
  // dict_serve_rw's writer thread), its writes from a Poisson schedule over
  // the same span, cut off when the reads are done.
  const std::size_t read_senders = with_writes ? senders - 1 : senders;
  Tracer untraced(false);
  std::vector<std::vector<ReadRec>> segments;
  std::vector<WriteRec> all_writes;
  Versions versions;
  std::size_t op_next = 0;
  const auto run = [&](std::vector<ReadRec> reads, double seconds,
                       Tracer& tracer, std::uint64_t request_base) {
    std::vector<WriteRec> writes;
    if (with_writes) {
      writes = WriteSchedule(p.Num("write_qps"), seconds, sched_rng);
      writes.resize(std::min(writes.size(), stream.ops.size() - op_next));
    }
    RunSegment(*engine, router, pool, k, read_senders, reads,
               with_writes ? &stream : nullptr, op_next, writes, versions,
               tracer, request_base);
    op_next += writes.size();
    all_writes.insert(all_writes.end(), writes.begin(), writes.end());
    segments.push_back(std::move(reads));
  };
  run(Schedule(segs, rungs, zipf, sched_rng), schedule_s, untraced, 0);
  if (ctx.trace) {
    run(Schedule({{op_rate, rung_s[0]}}, {0}, zipf, sched_rng), rung_s[0], tr,
        1000000);
  }
  const std::uint64_t batches = engine->batches();
  const std::uint64_t claimed = engine->batched_queries();
  const std::uint64_t deduped = engine->deduped_rows();
  engine.reset();

  // dict_serve runs no write stream, so its traced run times Insert and
  // Remove quiescently, once the reads are done: each insert of a fresh
  // word, then the remove of the id it got.
  if (ctx.trace && !with_writes) {
    cned::Rng rng(ctx.seed * 1000 + 5);
    for (std::size_t j = 0; j < p.Size("probe_queries"); ++j) {
      const std::string s = cned::PerturbString(
          dict.strings[rng.Index(dict.size())], 2, cned::Alphabet::Latin(),
          rng);
      const std::uint64_t want_id = router.next_insert_id();
      const std::uint32_t root = tr.NewId();
      const Clock::time_point t0 = Clock::now();
      std::uint64_t id = 0;
      bool removed = false;
      {
        ScopedSpan span(tr, "serve.insert", 4000000 + j, root);
        id = router.Insert(s);
      }
      {
        ScopedSpan span(tr, "serve.remove", 4000000 + j, root);
        removed = router.Remove(id);
      }
      tr.Record(root, "probe.write", 4000000 + j, 0, t0, Clock::now());
      const bool ok = id == want_id && removed;
      rep.Op(ok, !ok);
      if (!ok) rep.Wrong("Insert/Remove were not acknowledged as expected");
    }
  }

  // Correctness of every read, warm-up included.
  std::vector<std::vector<ReadRec>*> all;
  for (auto& seg : segments) all.push_back(&seg);
  std::unique_ptr<MirrorChecker> mirror;
  if (with_writes) {
    mirror = std::make_unique<MirrorChecker>(stream, router.metric(), pool, k);
    mirror->Prepare(all, versions.done.load());
  }
  std::size_t shed = 0, partial = 0, wrong = 0, reads_total = 0;
  std::size_t failovers = 0, hedged = 0, evicted = 0;
  for (std::vector<ReadRec>* seg : all) {
    for (ReadRec& r : *seg) {
      if (r.answered) {
        r.wrong = with_writes ? !mirror->Check(r)
                              : !(r.stats == want_stats[r.query] &&
                                  SameNeighbors(r.neighbors, want[r.query]));
      }
      if (r.wrong) r.latency_ms = kInf;
      shed += r.shed;
      partial += r.partial;
      wrong += r.wrong;
      failovers += r.failovers;
      hedged += r.hedged;
      evicted += r.evicted;
      ++reads_total;
      rep.Op(r.answered && !r.wrong, r.wrong);
    }
  }
  if (wrong > 0) {
    rep.Wrong(std::to_string(wrong) + " served reads differ from the reference");
  }
  std::size_t writes_failed = 0;
  for (const WriteRec& w : all_writes) {
    writes_failed += !w.ok;
    rep.Op(w.ok, !w.ok);
  }
  if (writes_failed > 0) {
    rep.Wrong(std::to_string(writes_failed) + " writes were not acknowledged");
  }

  // The generator's own lateness: a free sender waking after the read was
  // due. Past `max_late_ms` the schedule was not kept and the run is void.
  const std::vector<ReadRec>& main_seg = segments.front();
  std::vector<double> late;
  for (const ReadRec& r : main_seg) {
    if (r.rung >= 0) late.push_back(r.late_ms);
  }
  const double late_p99 = Quantile(late, 0.99);
  if (late_p99 > p.Num("max_late_ms")) {
    std::cerr << "perfbench: invalid run: generator p99 lateness " << late_p99
              << " ms exceeds " << p.Num("max_late_ms") << " ms\n";
    return 3;
  }

  if (!ctx.trace) {
    // Every read is timed from its scheduled send, queueing included.
    rep.Add("setup_s", "s", Median(setup_s), setup_s.size());
    const std::vector<double> op_lat = Latencies(main_seg, op_rung);
    rep.Add("read_p50_ms", "ms", Quantile(op_lat, 0.5), op_lat.size());
    rep.Add("read_p99_ms", "ms", Quantile(op_lat, 0.99), op_lat.size());
    double max_ok = 0.0;
    double goodput = 0.0;
    double rung_start = warmup_s;
    for (std::size_t r = 0; r < rates.size(); ++r) {
      const std::vector<double> lat = Latencies(main_seg, static_cast<int>(r));
      // A growing backlog shows as reads waiting for a free sender longer
      // at the end of the rung than at its start.
      std::vector<double> head, tail;
      std::size_t seen = 0;
      for (const ReadRec& rr : main_seg) {
        if (rr.rung != static_cast<int>(r)) continue;
        if (seen < lat.size() / 3) head.push_back(rr.wait_ms);
        if (seen >= lat.size() - lat.size() / 3) tail.push_back(rr.wait_ms);
        ++seen;
      }
      const double p99 = Quantile(lat, 0.99);
      const bool backlog = Median(tail) > Median(head) + slo_ms / 10.0;
      if (p99 <= slo_ms && !backlog) max_ok = std::max(max_ok, rates[r]);
      if (!with_writes) {
        const std::string tag =
            "ladder.r" + std::to_string(static_cast<long>(rates[r]));
        rep.Add(tag + ".offered_qps", "qps",
                static_cast<double>(lat.size()) / rung_s[r], lat.size());
        rep.Add(tag + ".read_p50_ms", "ms", Quantile(lat, 0.5), lat.size());
        rep.Add(tag + ".read_p99_ms", "ms", p99, lat.size());
      }
      if (r + 1 == rates.size()) {
        // Reads within the SLO per second, from the rung's start until it
        // ended or its last read completed, whichever is later: a backlog
        // stretches the interval.
        std::size_t good = 0;
        double end = rung_start + rung_s[r];
        for (const ReadRec& rr : main_seg) {
          if (rr.rung == static_cast<int>(r) && rr.answered && !rr.wrong) {
            good += rr.latency_ms <= slo_ms;
            end = std::max(end, rr.at_s + rr.latency_ms / 1e3);
          }
        }
        goodput = static_cast<double>(good) / (end - rung_start);
        rep.Add("goodput_qps", "qps", goodput, lat.size());
      }
      rung_start += rung_s[r];
    }
    if (!with_writes) rep.Add("max_qps_at_slo", "qps", max_ok, rates.size());
    if (with_writes) {
      std::vector<double> wl;
      for (const WriteRec& w : all_writes) wl.push_back(w.latency_ms);
      rep.Add("write_p50_ms", "ms", Quantile(wl, 0.5), wl.size());
      rep.Add("write_p99_ms", "ms", Quantile(wl, 0.99), wl.size());
    }
  }
  rep.Add("fail_frac", "fraction",
          static_cast<double>(rep.failed()) /
              static_cast<double>(std::max<std::size_t>(rep.attempted(), 1)),
          rep.attempted());

  if (ctx.trace) {
    const double n = static_cast<double>(std::max<std::size_t>(reads_total, 1));
    const std::size_t measured = Latencies(main_seg, 0).size();
    rep.Add("serve.dedup_frac", "fraction",
            static_cast<double>(deduped) /
                static_cast<double>(std::max<std::uint64_t>(claimed, 1)),
            claimed);
    rep.Add("serve.batch_size", "count",
            static_cast<double>(claimed) /
                static_cast<double>(std::max<std::uint64_t>(batches, 1)),
            batches);
    rep.Add("serve.shed_frac", "fraction", static_cast<double>(shed) / n,
            reads_total);
    rep.Add("serve.partial_frac", "fraction", static_cast<double>(partial) / n,
            reads_total);
    rep.Add("serve.failovers_per_1k", "count",
            1e3 * static_cast<double>(failovers) / n, reads_total);
    rep.Add("serve.hedged_per_1k", "count",
            1e3 * static_cast<double>(hedged) / n, reads_total);
    rep.Add("serve.evicted_per_1k", "count",
            1e3 * static_cast<double>(evicted) / n, reads_total);
    for (const char* op : {"insert", "remove"}) {
      const std::vector<double> ms = tr.DurationsMs(std::string("serve.") + op);
      rep.Add(std::string("serve.") + op + "_ms", "ms", Median(ms), ms.size());
    }

    // Generator discipline, from the untraced segment.
    double last_end = 0.0;
    for (const ReadRec& r : main_seg) {
      if (r.rung >= 0 && r.answered) {
        last_end = std::max(last_end, r.at_s + r.latency_ms / 1e3);
      }
    }
    rep.Add("gen.offered_qps", "qps",
            static_cast<double>(measured) / rung_s[0], measured);
    rep.Add("gen.achieved_qps", "qps",
            static_cast<double>(measured) /
                std::max(last_end - warmup_s, rung_s[0]),
            measured);
    rep.Add("gen.late_p99_ms", "ms", late_p99, late.size());

    // Layer sums over the traced reads around the median. A read's spans
    // are the generator wait and the engine call, which tile it; the layers
    // named inside the call are the pivot row and the sweep (fast path, or
    // the robust path once a write has landed), each timed on its own by
    // the quiescent probes. The rest of the call is the engine overhead
    // (admission, the driver's scheduling, queueing behind other sweeps),
    // and its share of the read is what no layer measurement explains.
    const std::vector<double> root_ms = tr.DurationsMs("read");
    const double t_p50 = Quantile(root_ms, 0.5);
    const Tracer::Band band = tr.MedianBand("read");
    const double wait = Mean(tr.ChildDurationsMs("gen.wait", band.ids));
    const double call =
        Mean(tr.ChildDurationsMs("serve.engine.KNearest", band.ids));
    const double sweep = with_writes ? robust_ms : fast_ms;
    const double layer_sum = wait + row_ms + sweep;
    const std::size_t nb = band.ids.size();
    rep.Add("trace.read_p50_ms", "ms", t_p50, root_ms.size());
    rep.Add("trace.band_read_ms", "ms", band.mean_ms, nb);
    rep.Add("trace.layer.gen_wait_ms", "ms", wait, nb);
    rep.Add("trace.layer.engine_call_ms", "ms", call, nb);
    rep.Add("trace.layer.row_ms", "ms", row_ms, nb);
    rep.Add("trace.layer.sweep_ms", "ms", sweep, nb);
    rep.Add("trace.layer_sum_ms", "ms", layer_sum, nb);
    rep.Add("serve.engine_overhead_ms", "ms", call - row_ms - sweep, nb);
    rep.Add("trace.unattributed_frac", "fraction",
            (band.mean_ms - layer_sum) / band.mean_ms, nb);
    const double untraced_p50 = Quantile(Latencies(main_seg, 0), 0.5);
    rep.Add("trace.overhead_frac", "fraction",
            (t_p50 - untraced_p50) / untraced_p50, root_ms.size());
  }
  world.reset();
  rep.Add("rss_mb", "MB", PeakRssMb(), 1);
  return 0;
}

}  // namespace perfbench
