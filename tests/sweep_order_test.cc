// Pins the LAESA search trajectory. The in-process sweeps visit their
// static-bound phase through the survivor stream (`SurvivorStream`,
// sweep_kernel.h): survivor ids counting-sorted into bound buckets over the
// dense bound slab, each bucket sorted by (bound, id) when the stream
// reaches it. This suite keeps a test-local reference of the
// compaction-driven loops that stream replaces — visit the minimal-bound
// survivor, eliminate and compact every survivor, pick the next minimum —
// built on the scalar kernels, and asserts that `Laesa` over one segment
// and over S shards returns the same neighbours, distances and QueryStats
// on data where equal bounds are the norm. It also drives the stream
// itself on synthetic slabs (equal, zero, one-ulp-apart, denormal and
// near-overflow bounds, infinite and zero seed bounds, no survivors, a
// bound that falls mid-stream) against a std::sort by (bound, id).
//
// The S = 1 vs S = k suites cannot catch an ordering bug shared by every
// segment count; this one compares each against an independent loop.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datasets/prototype_store.h"
#include "datasets/sharded_prototype_store.h"
#include "distances/registry.h"
#include "search/laesa.h"
#include "search/sweep_kernel.h"
#include "search/table_quant.h"

namespace cned {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct RefResult {
  std::vector<NeighborResult> best;
  QueryStats stats;
  std::vector<std::size_t> visits;    // evaluated candidates, in order
  std::vector<bool> visit_abandoned;  // parallel to visits
};

// The reference: the pivot table rebuilt from the public surface (same
// distance calls, same quantizer), swept by the per-visit compaction loops
// on the scalar kernels.
class RefLaesa {
 public:
  RefLaesa(const PrototypeStore& store, const StringDistance& dist,
           const std::vector<std::size_t>& pivots, TablePrecision precision)
      : store_(store), dist_(dist), pivots_(pivots), precision_(precision) {
    const std::size_t n = store.size();
    rank_.assign(n, -1);
    for (std::size_t p = 0; p < pivots.size(); ++p) {
      rank_[pivots[p]] = static_cast<std::int32_t>(p);
    }
    f64_.resize(pivots.size() * n);
    for (std::size_t p = 0; p < pivots.size(); ++p) {
      for (std::size_t i = 0; i < n; ++i) {
        f64_[p * n + i] = dist.Distance(store[pivots[p]], store[i]);
      }
    }
    if (precision != TablePrecision::kF64) {
      const std::size_t width = TablePrecisionBytes(precision);
      codes_.resize(pivots.size() * n * width);
      meta_.resize(pivots.size());
      for (std::size_t p = 0; p < pivots.size(); ++p) {
        QuantRowEncoder enc;
        enc.Scan(f64_.data() + p * n, n);
        enc.Prepare(precision);
        enc.Encode(f64_.data() + p * n, n, codes_.data() + p * n * width);
        meta_[p] = enc.Finish();
      }
    }
  }

  // Laesa::Sweep: pivots first, then every survivor, one flagged
  // eliminate-and-compact pass per visit.
  RefResult Sweep(std::string_view q, std::size_t k,
                  const std::uint64_t* tombstones) const {
    const SweepKernels& kern = ScalarSweepKernels();
    const std::size_t n = store_.size();
    RefResult r;
    k = std::min(k, n);
    if (k == 0) return r;
    std::vector<std::uint32_t> idx(n);
    std::vector<double> lower(n);
    dist_.LengthLowerBounds(q.size(), store_.lengths_data(), n, lower.data());
    std::iota(idx.begin(), idx.end(), std::uint32_t{0});
    std::size_t live_pivots = pivots_.size();
    std::size_t live = n;
    auto kth = [&]() {
      return r.best.size() < k ? kInf : r.best.back().distance;
    };
    std::size_t s = pivots_[0];
    if (tombstones != nullptr) {
      ApplyTombstoneMask(tombstones, n, lower.data());
      const SweepCompactResult pre = kern.eliminate_and_compact_flagged(
          idx.data(), lower.data(), rank_.data(), live, 0xFFFFFFFFu, kInf);
      live = pre.live;
      live_pivots -= pre.pivots_died;
      s = live_pivots > 0 ? pre.next_pivot : pre.next;
      if (s == kSweepNone) live = 0;
    }
    while (live > 0) {
      const bool is_pivot = rank_[s] >= 0;
      const double cap = is_pivot ? kInf : kth();
      const double d = Visit(q, k, s, cap, is_pivot, &r);
      if (is_pivot) {
        QuantUpdateLowerPacked(kern, view(),
                               static_cast<std::size_t>(rank_[s]), n, d,
                               idx.data(), 0, lower.data(), live);
      }
      const SweepCompactResult pass = kern.eliminate_and_compact_flagged(
          idx.data(), lower.data(), rank_.data(), live,
          static_cast<std::uint32_t>(s), kth());
      live = pass.live;
      live_pivots -= pass.pivots_died;
      if (live == 0) break;
      s = live_pivots > 0 ? pass.next_pivot : pass.next;
      if (s == kSweepNone) break;
    }
    return r;
  }

  // Laesa::SweepWithRow: seed with the row, apply every row, compact_seed,
  // then one eliminate-and-compact pass per visit.
  RefResult SweepWithRow(std::string_view q, std::size_t k,
                         const double* row) const {
    const SweepKernels& kern = ScalarSweepKernels();
    const std::size_t n = store_.size();
    RefResult r;
    k = std::min(k, n);
    if (k == 0) return r;
    std::vector<std::uint32_t> idx(n);
    std::vector<double> lower(n);
    dist_.LengthLowerBounds(q.size(), store_.lengths_data(), n, lower.data());
    auto kth = [&]() {
      return r.best.size() < k ? kInf : r.best.back().distance;
    };
    for (std::size_t p = 0; p < pivots_.size(); ++p) {
      InsertNeighborTopK(r.best, k, {pivots_[p], row[p]}, true);
    }
    for (std::size_t p = 0; p < pivots_.size(); ++p) {
      QuantUpdateLowerDense(kern, view(), p, n, row[p], lower.data());
    }
    const SweepCompactResult seed = kern.compact_seed(
        lower.data(), rank_.data(), n, 0, kth(), idx.data(), lower.data());
    std::size_t live = seed.live;
    std::size_t s = seed.next;
    while (live > 0 && s != kSweepNone) {
      Visit(q, k, s, kth(), /*is_pivot=*/false, &r);
      const SweepCompactResult pass = kern.eliminate_and_compact(
          idx.data(), lower.data(), live, static_cast<std::uint32_t>(s),
          kth());
      live = pass.live;
      s = pass.next;
    }
    return r;
  }

 private:
  double Visit(std::string_view q, std::size_t k, std::size_t s, double cap,
               bool is_pivot, RefResult* r) const {
    const double d = dist_.DistanceBounded(q, store_[s], cap);
    r->stats.distance_computations += 1;
    r->stats.pivot_computations += is_pivot ? 1 : 0;
    const bool abandoned = d >= cap;
    if (abandoned) {
      r->stats.bounded_abandons += 1;
    } else {
      InsertNeighborTopK(r->best, k, {s, d});
    }
    r->visits.push_back(s);
    r->visit_abandoned.push_back(abandoned);
    return d;
  }

  QuantTableView view() const {
    QuantTableView v;
    v.precision = precision_;
    if (precision_ == TablePrecision::kF64) {
      v.f64 = f64_.data();
    } else {
      v.q = codes_.data();
      v.rows = meta_.data();
    }
    return v;
  }

  const PrototypeStore& store_;
  const StringDistance& dist_;
  std::vector<std::size_t> pivots_;
  TablePrecision precision_;
  std::vector<std::int32_t> rank_;
  std::vector<double> f64_;
  std::vector<unsigned char> codes_;
  std::vector<QuantRowMeta> meta_;
};

// Per-shard split of a reference trajectory, as a sharded Laesa reports it.
std::vector<QueryStats> ShardSplit(const RefResult& r,
                                   const ShardedPrototypeStore& st,
                                   const std::vector<std::int32_t>& rank,
                                   bool count_pivots) {
  std::vector<QueryStats> out(st.shard_count());
  for (std::size_t v = 0; v < r.visits.size(); ++v) {
    QueryStats& hs = out[st.ShardOf(r.visits[v])];
    hs.distance_computations += 1;
    hs.bounded_abandons += r.visit_abandoned[v] ? 1 : 0;
    if (count_pivots) hs.pivot_computations += rank[r.visits[v]] >= 0 ? 1 : 0;
  }
  return out;
}

void ExpectSame(const RefResult& ref, const std::vector<NeighborResult>& got,
                const QueryStats& stats, const std::string& what) {
  ASSERT_EQ(ref.best.size(), got.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(ref.best[i].index, got[i].index) << what << " rank " << i;
    EXPECT_EQ(ref.best[i].distance, got[i].distance) << what << " rank " << i;
  }
  EXPECT_TRUE(ref.stats == stats)
      << what << ": reference (" << ref.stats.distance_computations << ", "
      << ref.stats.bounded_abandons << ", " << ref.stats.pivot_computations
      << ") != index (" << stats.distance_computations << ", "
      << stats.bounded_abandons << ", " << stats.pivot_computations << ")";
}

// Tie-heavy data: short strings over {a, b}, every one of the first third
// repeated, so many candidates share both their length bound and their
// pivot-table rows.
std::vector<std::string> TieHeavy(std::size_t count, std::uint64_t seed,
                                  std::size_t max_len) {
  Rng rng(seed);
  std::vector<std::string> out;
  while (out.size() < count) {
    std::string s(rng.Index(max_len + 1), 'a');
    for (char& c : s) c = rng.Chance(0.5) ? 'a' : 'b';
    out.push_back(s);
    if (out.size() < count / 3) out.push_back(s);
  }
  out.resize(count);
  return out;
}

const std::size_t kKs[] = {1, 3, 8};
const TablePrecision kPrecisions[] = {TablePrecision::kF64,
                                      TablePrecision::kF32,
                                      TablePrecision::kF16,
                                      TablePrecision::kU8};
const std::size_t kShardCounts[] = {1, 2, 4};

std::string Label(const std::string& dist, TablePrecision p,
                  const std::string& mode, std::size_t k,
                  const std::string& q) {
  return dist + "/" + TablePrecisionName(p) + "/" + mode +
         " k=" + std::to_string(k) + " q='" + q + "'";
}

TEST(SweepOrderTest, FlatAndShardedMatchCompactionLoops) {
  const std::vector<std::string> protos = TieHeavy(90, 13001, 6);
  const std::vector<std::string> queries = TieHeavy(10, 13002, 7);
  PrototypeStore store(protos);
  const std::size_t n = store.size();

  // Tombstones: every third slot, plus an all-pivots-deleted mask set up
  // per index below (the static phase then starts straight from the
  // pre-pass).
  std::vector<std::uint64_t> thirds(TombstoneWords(n), 0);
  for (std::size_t i = 0; i < n; i += 3) SetTombstone(thirds.data(), i);

  for (const std::string& name : AllDistanceNames()) {
    StringDistancePtr dist = MakeDistance(name);
    for (TablePrecision prec : kPrecisions) {
      Laesa flat(store, dist, 6, prec);
      RefLaesa ref(store, *dist, flat.pivots(), prec);
      std::vector<std::int32_t> rank(n, -1);
      for (std::size_t p = 0; p < flat.pivots().size(); ++p) {
        rank[flat.pivots()[p]] = static_cast<std::int32_t>(p);
      }
      std::vector<std::uint64_t> no_pivots(TombstoneWords(n), 0);
      for (std::size_t p : flat.pivots()) SetTombstone(no_pivots.data(), p);

      std::vector<ShardedPrototypeStore> sharded_stores;
      sharded_stores.reserve(std::size(kShardCounts));
      std::vector<Laesa> sharded;
      for (std::size_t shards : kShardCounts) {
        sharded_stores.emplace_back(protos, shards);
        sharded.emplace_back(sharded_stores.back(), dist, 6, prec);
        ASSERT_EQ(sharded.back().pivots(), flat.pivots());
      }

      for (const std::string& q : queries) {
        std::vector<double> row(flat.pivot_count());
        flat.ComputePivotRow(q, row.data());

        for (std::size_t k : kKs) {
          const RefResult lazy = ref.Sweep(q, k, nullptr);
          const RefResult with_row = ref.SweepWithRow(q, k, row.data());
          {
            QueryStats st;
            ExpectSame(lazy, flat.KNearest(q, k, &st), st,
                       Label(name, prec, "flat lazy", k, q));
            QueryStats sr;
            ExpectSame(with_row,
                       flat.KNearestWithPivotRow(q, k, row.data(), &sr), sr,
                       Label(name, prec, "flat row", k, q));
          }
          for (const std::uint64_t* mask : {thirds.data(), no_pivots.data()}) {
            const RefResult masked = ref.Sweep(q, k, mask);
            QueryStats st;
            ExpectSame(masked, flat.KNearest(q, k, &st, nullptr, mask), st,
                       Label(name, prec, "flat masked", k, q));
          }
          for (std::size_t i = 0; i < sharded.size(); ++i) {
            const Laesa& idx = sharded[i];
            const std::string tag = " S=" + std::to_string(kShardCounts[i]);
            std::vector<QueryStats> hs(idx.shard_count());
            QueryStats st;
            ExpectSame(lazy, idx.KNearest(q, k, &st, hs.data()), st,
                       Label(name, prec, "sharded lazy" + tag, k, q));
            const auto want_lazy =
                ShardSplit(lazy, sharded_stores[i], rank, true);
            for (std::size_t s = 0; s < hs.size(); ++s) {
              EXPECT_TRUE(hs[s] == want_lazy[s])
                  << Label(name, prec, "sharded lazy" + tag, k, q)
                  << " shard " << s;
            }
            std::vector<QueryStats> hr(idx.shard_count());
            QueryStats sr;
            ExpectSame(with_row,
                       idx.KNearestWithPivotRow(q, k, row.data(), &sr,
                                                hr.data()),
                       sr, Label(name, prec, "sharded row" + tag, k, q));
            const auto want_row =
                ShardSplit(with_row, sharded_stores[i], rank, false);
            for (std::size_t s = 0; s < hr.size(); ++s) {
              EXPECT_TRUE(hr[s] == want_row[s])
                  << Label(name, prec, "sharded row" + tag, k, q)
                  << " shard " << s;
            }
          }
        }
      }
    }
  }
}

// --- The survivor stream on synthetic slabs. ------------------------------

// Segment sizes summing to n: S uneven segments, the last one possibly
// empty.
std::vector<std::size_t> SplitSizes(std::size_t n, std::size_t segments) {
  std::vector<std::size_t> sizes;
  std::size_t left = n;
  for (std::size_t g = 0; g + 1 < segments; ++g) {
    const std::size_t take = std::min(left, (n * (g + 1)) / (2 * segments) + 1);
    sizes.push_back(take);
    left -= take;
  }
  sizes.push_back(left);
  return sizes;
}

// The stream over `lower` split into segments of `sizes`: dense segments
// are counted, packed ones (`packed`) are first compacted stably to their
// survivors and then unpacked. `bound(visited)` is read before each visit.
// Returns the visited ids.
template <typename Bound>
std::vector<std::uint32_t> RunStream(std::vector<double> lower,
                                     double seed_bound,
                                     const std::vector<std::size_t>& sizes,
                                     bool packed, Bound bound) {
  const std::size_t n = lower.size();
  std::vector<std::uint32_t> idx(n, 0xFFFFFFFFu);
  std::vector<std::uint32_t> hist;
  SurvivorStream stream(seed_bound, n, sizes.size(), hist);
  std::size_t base = 0;
  for (std::size_t g = 0; g < sizes.size(); ++g) {
    if (!packed) {
      stream.Count(g, lower.data() + base, sizes[g]);
    } else {
      std::size_t live = 0;
      for (std::size_t j = 0; j < sizes[g]; ++j) {
        if (!(lower[base + j] < seed_bound)) continue;
        idx[base + live] = static_cast<std::uint32_t>(base + j);
        lower[base + live] = lower[base + j];
        ++live;
      }
      stream.Unpack(g, idx.data() + base, lower.data() + base, live, sizes[g],
                    base);
    }
    base += sizes[g];
  }
  const std::size_t survivors = static_cast<std::size_t>(std::count_if(
      lower.begin(), lower.end(), [&](double b) { return b < seed_bound; }));
  EXPECT_EQ(stream.Place(), survivors);
  base = 0;
  for (std::size_t g = 0; g < sizes.size(); ++g) {
    stream.Scatter(g, lower.data() + base, sizes[g], base, idx.data());
    base += sizes[g];
  }
  std::vector<std::uint32_t> visited;
  stream.VisitInBoundOrder(
      idx.data(), lower.data(), [&]() { return bound(visited.size()); },
      [&](std::size_t id) {
        visited.push_back(static_cast<std::uint32_t>(id));
      });
  return visited;
}

// The reference: every survivor sorted by (bound, id), taken while
// lower < bound(visited).
template <typename Bound>
std::vector<std::uint32_t> RefStream(const std::vector<double>& lower,
                                     double seed_bound, Bound bound) {
  std::vector<std::uint32_t> all;
  for (std::uint32_t j = 0; j < lower.size(); ++j) {
    if (lower[j] < seed_bound) all.push_back(j);
  }
  std::sort(all.begin(), all.end(), [&](std::uint32_t a, std::uint32_t b) {
    return lower[a] < lower[b] || (lower[a] == lower[b] && a < b);
  });
  std::vector<std::uint32_t> visited;
  for (std::uint32_t id : all) {
    if (!(lower[id] < bound(visited.size()))) break;
    visited.push_back(id);
  }
  return visited;
}

// Checks the stream against the reference at S = 1, 2 and 5, dense and
// packed.
template <typename Bound>
void ExpectStream(const std::vector<double>& lower, double seed_bound,
                  Bound bound, const std::string& what) {
  const std::vector<std::uint32_t> want = RefStream(lower, seed_bound, bound);
  for (std::size_t segments : {1, 2, 5}) {
    for (bool packed : {false, true}) {
      EXPECT_EQ(want, RunStream(lower, seed_bound,
                                SplitSizes(lower.size(), segments), packed,
                                bound))
          << what << " S=" << segments << (packed ? " packed" : " dense");
    }
  }
}

auto Never() {
  return [](std::size_t) { return kInf; };
}

TEST(SurvivorStreamTest, AllBoundsEqualVisitInIdOrder) {
  const std::vector<double> lower(3000, 0.25);
  ExpectStream(lower, 0.5, Never(), "equal");
  ExpectStream(lower, kInf, Never(), "equal, seed +inf");
  const std::vector<std::uint32_t> got =
      RunStream(lower, 0.5, {lower.size()}, false, Never());
  ASSERT_EQ(got.size(), lower.size());
  for (std::uint32_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], i);
}

TEST(SurvivorStreamTest, ZeroBoundsAndZeroSeedBound) {
  std::vector<double> lower(500, 0.0);
  for (std::size_t i = 0; i < lower.size(); i += 3) lower[i] = 0.75;
  ExpectStream(lower, 1.0, Never(), "zeros");
  ExpectStream(lower, 0.0, Never(), "seed bound 0");
  EXPECT_TRUE(RunStream(lower, 0.0, {lower.size()}, false, Never()).empty());
}

TEST(SurvivorStreamTest, KeysOneUlpApart) {
  // Pairs of keys one ulp apart, interleaved in id order, over many seed
  // bounds: the largest survivor sits one ulp under the seed bound, where
  // b * scale may round up to the bucket count.
  Rng rng(13101);
  for (int trial = 0; trial < 200; ++trial) {
    const double seed = 0.01 + rng.Uniform() * 10.0;
    std::vector<double> lower;
    for (int i = 0; i < 64; ++i) {
      const double v = rng.Uniform() * seed;
      lower.push_back(std::nextafter(v, kInf));
      lower.push_back(v);
    }
    lower.push_back(std::nextafter(seed, 0.0));
    lower.push_back(seed);  // not a survivor
    lower.push_back(std::nextafter(seed, 0.0));
    ExpectStream(lower, seed, Never(), "ulp trial " + std::to_string(trial));
  }
}

TEST(SurvivorStreamTest, DegenerateSpreads) {
  const double denorm = std::numeric_limits<double>::denorm_min();
  std::vector<double> tiny;
  for (int i = 0; i < 300; ++i) tiny.push_back(denorm * (i % 7));
  ExpectStream(tiny, denorm * 6, Never(), "denormal spread");
  ExpectStream(tiny, denorm * 7, Never(), "denormal spread, all survive");
  tiny.push_back(1e-300);  // a finite scale over denormal keys
  ExpectStream(tiny, 2e-300, Never(), "denormal keys under 2e-300");

  const double big = std::numeric_limits<double>::max();
  std::vector<double> huge;
  for (int i = 0; i < 300; ++i) huge.push_back(big / (1 + i % 11));
  ExpectStream(huge, big, Never(), "spread near 1e308");
  ExpectStream(huge, kInf, Never(), "spread near 1e308, seed +inf");

  Rng rng(13102);
  std::vector<double> spread(2000);
  for (double& v : spread) v = std::floor(rng.Uniform() * 40.0) / 8.0;
  ExpectStream(spread, kInf, Never(), "seed bound +inf");
  spread.back() = kInf;  // a non-survivor under an infinite seed bound
  ExpectStream(spread, kInf, Never(), "seed bound +inf with an +inf slot");
}

TEST(SurvivorStreamTest, ZeroSurvivors) {
  const std::vector<double> lower(100, 2.0);
  ExpectStream(lower, 1.0, Never(), "none below the seed bound");
  ExpectStream(std::vector<double>(40, kInf), kInf, Never(), "all +inf");
  EXPECT_TRUE(RunStream(lower, 1.0, {100}, false, Never()).empty());
  EXPECT_TRUE(RunStream(lower, 1.0, {60, 40}, true, Never()).empty());
}

TEST(SurvivorStreamTest, FallingBoundStopsAtFirstKeyAtOrAboveIt) {
  Rng rng(13103);
  std::vector<double> lower(4000);
  for (double& v : lower) v = std::floor(rng.Uniform() * 200.0) / 100.0;
  // bound() is the seed bound for the first 50 visits, then the key of the
  // 300th survivor in (bound, id) order: the stream must stop at the first
  // survivor whose key reaches it, not one visit earlier or later.
  const double seed = 1.5;
  const std::vector<std::uint32_t> order = RefStream(lower, seed, Never());
  ASSERT_GT(order.size(), 300u);
  const double drop = lower[order[300]];
  std::size_t stop = 0;
  while (lower[order[stop]] < drop) ++stop;
  ASSERT_GT(stop, 50u);
  const auto falling = [&](std::size_t visited) {
    return visited < 50 ? seed : drop;
  };
  ExpectStream(lower, seed, falling, "falling bound");
  const std::vector<std::uint32_t> got =
      RunStream(lower, seed, {lower.size()}, false, falling);
  ASSERT_EQ(got.size(), stop);
  EXPECT_EQ(lower[got.back()] < drop, true);
  EXPECT_EQ(got, std::vector<std::uint32_t>(order.begin(),
                                            order.begin() + stop));
  // A bound that falls below every remaining key stops the stream at once.
  const auto to_zero = [](std::size_t visited) {
    return visited < 10 ? kInf : 0.0;
  };
  EXPECT_EQ(RunStream(lower, seed, SplitSizes(lower.size(), 3), true, to_zero)
                .size(),
            10u);
}

// A corpus large enough that the stream spreads over hundreds of buckets
// (the 90-prototype corpus above fills only a few), with many equal keys.
TEST(SweepOrderTest, LargeTieHeavyCorpusMatchesCompactionLoops) {
  const std::vector<std::string> protos = TieHeavy(2400, 13005, 9);
  const std::vector<std::string> queries = TieHeavy(6, 13006, 9);
  PrototypeStore store(protos);
  for (const char* name : {"dE", "dC", "dYB"}) {
    StringDistancePtr dist = MakeDistance(name);
    for (TablePrecision prec : {TablePrecision::kF64, TablePrecision::kU8}) {
      Laesa flat(store, dist, 6, prec);
      RefLaesa ref(store, *dist, flat.pivots(), prec);
      ShardedPrototypeStore sharded_store(protos, 3);
      Laesa sharded(sharded_store, dist, 6, prec);
      for (const std::string& q : queries) {
        std::vector<double> row(flat.pivot_count());
        flat.ComputePivotRow(q, row.data());
        for (std::size_t k : kKs) {
          const RefResult lazy = ref.Sweep(q, k, nullptr);
          const RefResult with_row = ref.SweepWithRow(q, k, row.data());
          for (const Laesa* idx : {&flat, &sharded}) {
            const std::string tag =
                " S=" + std::to_string(idx->shard_count());
            QueryStats st, sr;
            ExpectSame(lazy, idx->KNearest(q, k, &st), st,
                       Label(name, prec, "large lazy" + tag, k, q));
            ExpectSame(with_row,
                       idx->KNearestWithPivotRow(q, k, row.data(), &sr), sr,
                       Label(name, prec, "large row" + tag, k, q));
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace cned
