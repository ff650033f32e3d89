// Pins the LAESA search trajectory. The in-process sweeps visit their
// static-bound phase through the heap of `VisitInBoundOrder`; this suite
// keeps a test-local reference of the compaction-driven loops that heap
// replaces — visit the minimal-bound survivor, eliminate and compact every
// survivor, pick the next minimum — built on the scalar kernels, and
// asserts that `Laesa` and `ShardedLaesa` return the same neighbours,
// distances and QueryStats on data where equal bounds are the norm.
//
// The flat-vs-sharded suites cannot catch an ordering bug shared by both
// indexes; this one compares each against an independent loop.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datasets/prototype_store.h"
#include "datasets/sharded_prototype_store.h"
#include "distances/registry.h"
#include "search/laesa.h"
#include "search/sharded_laesa.h"
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
  RefResult Sweep(std::string_view q, std::size_t k, double slack,
                  const std::uint64_t* tombstones) const {
    const SweepKernels& kern = ScalarSweepKernels();
    const std::size_t n = store_.size();
    RefResult r;
    k = std::min(k, n);
    if (k == 0) return r;
    std::vector<std::uint32_t> idx(n);
    std::vector<double> lower(n);
    dist_.LengthLowerBounds(q.size(), store_.lengths_data(), n, lower.data());
    std::size_t live_pivots = FillIotaCountPivots(idx.data(), rank_.data(), n);
    std::size_t live = n;
    auto kth = [&]() {
      return r.best.size() < k ? kInf : r.best.back().distance;
    };
    std::size_t s = pivots_[0];
    if (tombstones != nullptr) {
      ApplyTombstoneMask(tombstones, n, lower.data());
      const SweepCompactResult pre = kern.eliminate_and_compact_flagged(
          idx.data(), lower.data(), rank_.data(), live, 0xFFFFFFFFu, slack,
          kInf);
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
          static_cast<std::uint32_t>(s), slack, kth());
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
      if (rank_[pivots_[p]] != static_cast<std::int32_t>(p)) continue;
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

// Per-shard split of a reference trajectory, as ShardedLaesa reports it.
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
const double kSlacks[] = {1.25, 2.0};
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
      Laesa flat(store, dist, 6, 0, prec);
      RefLaesa ref(store, *dist, flat.pivots(), prec);
      std::vector<std::int32_t> rank(n, -1);
      for (std::size_t p = 0; p < flat.pivots().size(); ++p) {
        rank[flat.pivots()[p]] = static_cast<std::int32_t>(p);
      }
      std::vector<std::uint64_t> no_pivots(TombstoneWords(n), 0);
      for (std::size_t p : flat.pivots()) SetTombstone(no_pivots.data(), p);

      std::vector<ShardedPrototypeStore> sharded_stores;
      sharded_stores.reserve(std::size(kShardCounts));
      std::vector<ShardedLaesa> sharded;
      for (std::size_t shards : kShardCounts) {
        sharded_stores.emplace_back(protos, shards);
        sharded.emplace_back(sharded_stores.back(), dist, 6, 0, prec);
        ASSERT_EQ(sharded.back().pivots(), flat.pivots());
      }

      for (const std::string& q : queries) {
        std::vector<double> row(flat.pivot_count());
        flat.ComputePivotRow(q, row.data());

        for (std::size_t k : kKs) {
          const RefResult lazy = ref.Sweep(q, k, 1.0, nullptr);
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
            const RefResult masked = ref.Sweep(q, k, 1.0, mask);
            QueryStats st;
            ExpectSame(masked, flat.KNearestMasked(q, k, mask, &st), st,
                       Label(name, prec, "flat masked", k, q));
          }
          for (std::size_t i = 0; i < sharded.size(); ++i) {
            const ShardedLaesa& idx = sharded[i];
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

        for (double slack : kSlacks) {
          const RefResult approx = ref.Sweep(q, 1, slack, nullptr);
          QueryStats st;
          ExpectSame(approx, {flat.NearestApprox(q, slack - 1.0, &st)}, st,
                     Label(name, prec, "flat approx", 1, q));
          for (std::size_t i = 0; i < sharded.size(); ++i) {
            QueryStats ss;
            ExpectSame(approx, {sharded[i].NearestApprox(q, slack - 1.0, &ss)},
                       ss,
                       Label(name, prec,
                             "sharded approx S=" +
                                 std::to_string(kShardCounts[i]),
                             1, q));
          }
        }
      }
    }
  }
}

// Duplicate pivot entries (ablation constructor): one candidate slot,
// several table rows — the static phase must start from the same place.
TEST(SweepOrderTest, DuplicatePivotsMatchCompactionLoops) {
  const std::vector<std::string> protos = TieHeavy(40, 13003, 5);
  PrototypeStore store(protos);
  const std::vector<std::size_t> pivots{0, 0, 7, 3, 7};
  for (const char* name : {"dE", "dC", "dYB"}) {
    StringDistancePtr dist = MakeDistance(name);
    Laesa flat(store, dist, pivots);
    RefLaesa ref(store, *dist, pivots, flat.table_precision());
    for (const std::string& q : TieHeavy(8, 13004, 6)) {
      std::vector<double> row(flat.pivot_count());
      flat.ComputePivotRow(q, row.data());
      for (std::size_t k : kKs) {
        QueryStats st, sr;
        ExpectSame(ref.Sweep(q, k, 1.0, nullptr), flat.KNearest(q, k, &st), st,
                   Label(name, flat.table_precision(), "dup lazy", k, q));
        ExpectSame(ref.SweepWithRow(q, k, row.data()),
                   flat.KNearestWithPivotRow(q, k, row.data(), &sr), sr,
                   Label(name, flat.table_precision(), "dup row", k, q));
      }
    }
  }
}

}  // namespace
}  // namespace cned
