#ifndef CNED_TESTS_PATH_MATRIX_H_
#define CNED_TESTS_PATH_MATRIX_H_

// The bit-identity path matrix. Every serving path answers a query with the
// same neighbours, the same exact distances and the same `QueryStats`: flat
// or sharded at S, built, `Load`-copied or `Map`ped, in process or through
// the distributed router at R replicas, under every sweep-kernel variant,
// through every query entry point, at each table precision.
// `ExpectSameAnswer` is the one comparator; `RunPathMatrix` builds a corpus
// once per (distance, precision) and answers every query along the axes a
// suite selects.
//
// Lazy reads (`KNearest`, the plain batch engine, the router's `KNearest`)
// are held to the lazy reads, and row reads (`KNearestWithPivotRow`, the
// group entry, the pivot-stage engine, the router's `KNearestWithRow`) to
// the row reads, of the reference cell: the flat, built index under the
// scalar kernel (under the active kernel when the kernel axis is off). A row
// read's stats include its pivot row's. Per-segment stats, when selected,
// are held to the built index's at the same S under the reference kernel:
// one entry per segment, so a flat index reports one.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "datasets/prototype_store.h"
#include "datasets/sharded_prototype_store.h"
#include "distances/registry.h"
#include "search/batch_engine.h"
#include "search/laesa.h"
#include "search/sweep_kernel.h"
#include "search/table_quant.h"
#include "serve/router.h"
#include "serve/shard_snapshot.h"
#include "tests/snapshot_test_util.h"

namespace cned {

inline std::ostream& operator<<(std::ostream& os, const QueryStats& s) {
  return os << "{computations " << s.distance_computations << ", abandons "
            << s.bounded_abandons << ", pivots " << s.pivot_computations
            << ", degraded " << s.shards_degraded << "}";
}

/// One query's answer along one path. `segments` (per-segment stats) is
/// compared when the expected side carries it.
struct Answer {
  std::vector<NeighborResult> neighbors;
  QueryStats stats;
  std::vector<QueryStats> segments;
  bool partial = false;
  std::vector<std::size_t> missing_shards;
};

inline Answer ServeAnswer(const ServeResult& r) {
  return {r.neighbors, r.stats, {}, r.partial, r.missing_shards};
}

/// A healthy answer: `neighbors` with `stats`.
inline Answer AnswerOf(std::vector<NeighborResult> neighbors,
                       const QueryStats& stats = {}) {
  Answer a;
  a.neighbors = std::move(neighbors);
  a.stats = stats;
  return a;
}

/// Bit-identity of two answers: a distance compares as the exact double.
/// When `want` carries per-segment stats, `got` must carry as many, equal.
inline void ExpectSameAnswer(const Answer& want, const Answer& got,
                             const std::string& ctx) {
  EXPECT_EQ(want.partial, got.partial) << ctx;
  EXPECT_EQ(want.missing_shards, got.missing_shards) << ctx;
  EXPECT_EQ(want.stats, got.stats) << ctx;
  if (!want.segments.empty()) {
    EXPECT_EQ(want.segments, got.segments) << ctx << " (per segment)";
  }
  ASSERT_EQ(want.neighbors.size(), got.neighbors.size()) << ctx;
  for (std::size_t i = 0; i < want.neighbors.size(); ++i) {
    EXPECT_EQ(want.neighbors[i].index, got.neighbors[i].index)
        << ctx << " rank " << i;
    EXPECT_EQ(want.neighbors[i].distance, got.neighbors[i].distance)
        << ctx << " rank " << i;
  }
}

/// Router options for healthy test fleets: short op timeouts and backoff.
inline ServeOptions TestServeOptions(const std::string& distance) {
  ServeOptions opt;
  opt.distance = distance;
  opt.op_timeout_ms = 400;
  opt.op_retries = 2;
  opt.backoff_base_ms = 2;
  return opt;
}

/// A query entry point.
enum class Entry {
  kLazy,       ///< `KNearest`; the router's `KNearest`
  kRow,        ///< `ComputePivotRow` + `KNearestWithPivotRow`; the router's
               ///< `KNearestWithRow`
  kRows,       ///< `KNearestWithPivotRows` in groups of each `groups` size,
               ///< then every query through the `PivotStageSearcher` form
  kBatchLazy,  ///< `BatchQueryEngine`, plain fan-out
  kBatch,      ///< `BatchQueryEngine`, pivot-stage pipeline
};

/// A corpus, its queries and the axes to answer them along.
struct PathMatrix {
  std::vector<std::string> protos;
  std::vector<std::string> queries;
  /// Carried by every sharded store; its `Load`ed and `Map`ped copies must
  /// keep them.
  std::vector<int> labels;

  std::vector<std::string> distances = {"dE"};
  std::vector<TablePrecision> precisions = {DefaultTablePrecision()};
  std::size_t pivots = 6;
  /// Sharded layouts beside the flat one.
  std::vector<std::size_t> shards;
  bool load = false;  ///< also answer from `Load`-copied indexes and stores
  bool map = false;   ///< also answer from `Map`ped indexes and stores
  /// One router per sharded layout and R, lazy and row reads only.
  std::vector<std::size_t> replicas;
  bool kernels = false;  ///< every available variant against scalar
  std::vector<Entry> entries = {Entry::kLazy};
  std::vector<std::size_t> ks = {1};
  std::vector<std::size_t> groups = {1, 2, 3, 4, 7};
  std::vector<std::size_t> threads = {0};  ///< batch-engine worker counts
  bool segments = false;                   ///< compare per-segment stats
  /// Lazy reads are answered once more with these global ids removed: a
  /// tombstone bitmap in process, `Remove` on the router.
  std::vector<std::size_t> removed;
};

namespace path_matrix {

/// One index and the stores it reads, at one layout and storage.
struct World {
  std::string layout_name;        // "flat" or "S=<shards>"
  std::size_t layout = 0;         // position in the layout list; 0 is flat
  const char* storage = "built";  // or "load", "map"
  PrototypeStore flat;
  ShardedPrototypeStore sharded;
  std::unique_ptr<Laesa> index;
  std::unique_ptr<TempFile> store_file, index_file;  // set on built worlds
};

/// One world's single-query reads under one kernel, [k position][query].
struct Reads {
  std::vector<std::vector<Answer>> lazy, removed, row;
  std::vector<std::vector<QueryStats>> sweep;  // row reads' own sweep stats
  std::vector<std::vector<double>> rows;
  std::vector<QueryStats> row_stats;  // each pivot row's evaluations
};

inline bool Has(const PathMatrix& m, Entry e) {
  return std::find(m.entries.begin(), m.entries.end(), e) != m.entries.end();
}

inline std::unique_ptr<World> Build(const PathMatrix& m, std::size_t shards,
                                    std::size_t layout,
                                    const StringDistancePtr& dist,
                                    TablePrecision precision,
                                    const std::string& tag) {
  auto w = std::make_unique<World>();
  w->layout = layout;
  if (shards == 0) {
    w->layout_name = "flat";
    w->flat = PrototypeStore(m.protos);
    w->index = std::make_unique<Laesa>(w->flat, dist, m.pivots, precision);
  } else {
    w->layout_name = "S=" + std::to_string(shards);
    w->sharded = ShardedPrototypeStore(m.protos, shards, m.labels);
    w->index = std::make_unique<Laesa>(w->sharded, dist, m.pivots, precision);
  }
  if (m.load || m.map) {
    const std::string file = tag + "_" + std::to_string(shards);
    w->store_file = std::make_unique<TempFile>("matrix_store_" + file);
    w->index_file = std::make_unique<TempFile>("matrix_index_" + file);
    if (shards == 0) {
      w->flat.SaveBinary(w->store_file->path());
    } else {
      w->sharded.SaveBinary(w->store_file->path());
    }
    w->index->Save(w->index_file->path());
  }
  return w;
}

/// `built` reopened from its files: copied by `Load`, or `Map`ped.
inline std::unique_ptr<World> Open(const World& built, bool copy,
                                   const PathMatrix& m,
                                   const StringDistancePtr& dist) {
  auto w = std::make_unique<World>();
  w->layout_name = built.layout_name;
  w->layout = built.layout;
  w->storage = copy ? "load" : "map";
  const std::string name = w->layout_name + " " + w->storage;
  const std::string& store = built.store_file->path();
  const std::string& index = built.index_file->path();
  if (built.layout == 0) {
    w->flat = copy ? PrototypeStore::LoadBinary(store)
                   : PrototypeStore::Map(store);
    w->index = std::make_unique<Laesa>(copy ? Laesa::Load(index, w->flat, dist)
                                            : Laesa::Map(index, w->flat, dist));
    EXPECT_EQ(w->flat.mapped(), !copy) << name;
  } else {
    w->sharded = copy ? ShardedPrototypeStore::LoadBinary(store)
                      : ShardedPrototypeStore::Map(store);
    w->index = std::make_unique<Laesa>(
        copy ? Laesa::Load(index, w->sharded, dist)
             : Laesa::Map(index, w->sharded, dist));
    EXPECT_EQ(w->sharded.mapped(), !copy) << name;
    EXPECT_EQ(w->sharded.labels(), m.labels) << name;
  }
  EXPECT_EQ(w->index->mapped(), !copy) << name;
  return w;
}

/// The single-query reads of `w` under the active kernel: lazy (and lazy
/// with `tombstones` when non-null) and row, as asked.
inline Reads Read(const World& w, const PathMatrix& m, bool lazy, bool row,
                  const std::uint64_t* tombstones) {
  const Laesa& index = *w.index;
  const std::size_t nq = m.queries.size();
  const std::size_t segments = m.segments ? index.shard_count() : 0;
  auto lazy_read = [&](const std::string& q, std::size_t k,
                       const std::uint64_t* tombs) {
    Answer a;
    a.segments.resize(segments);
    a.neighbors = index.KNearest(q, k, &a.stats,
                                 segments ? a.segments.data() : nullptr, tombs);
    return a;
  };
  Reads r;
  if (row) {
    r.rows.assign(nq, std::vector<double>(index.pivot_count()));
    r.row_stats.resize(nq);
    for (std::size_t i = 0; i < nq; ++i) {
      index.ComputePivotRow(m.queries[i], r.rows[i].data(), &r.row_stats[i]);
    }
  }
  for (std::size_t k : m.ks) {
    std::vector<Answer> lz, rm, rw;
    std::vector<QueryStats> sw;
    for (std::size_t i = 0; i < nq; ++i) {
      const std::string& q = m.queries[i];
      if (lazy) lz.push_back(lazy_read(q, k, nullptr));
      if (lazy && tombstones) rm.push_back(lazy_read(q, k, tombstones));
      if (!row) continue;
      Answer a;
      a.segments.resize(segments);
      QueryStats sweep;
      a.neighbors = index.KNearestWithPivotRow(
          q, k, r.rows[i].data(), &sweep,
          segments ? a.segments.data() : nullptr);
      a.stats = r.row_stats[i] + sweep;
      rw.push_back(std::move(a));
      sw.push_back(sweep);
    }
    r.lazy.push_back(std::move(lz));
    r.removed.push_back(std::move(rm));
    r.row.push_back(std::move(rw));
    r.sweep.push_back(std::move(sw));
  }
  return r;
}

/// `want` with the per-segment stats of `seg`.
inline Answer WithSegments(Answer want, const Answer& seg) {
  want.segments = seg.segments;
  return want;
}

/// `want` for a path that reports no per-segment stats.
inline Answer WithoutSegments(Answer want) {
  want.segments.clear();
  return want;
}

inline void CompareReads(const Reads& ref, const Reads& seg, const Reads& got,
                         const PathMatrix& m, const std::string& ctx) {
  for (std::size_t i = 0; i < got.rows.size(); ++i) {
    EXPECT_EQ(ref.rows[i], got.rows[i])
        << ctx << " pivot row q=" << m.queries[i];
  }
  for (std::size_t ki = 0; ki < m.ks.size(); ++ki) {
    for (std::size_t i = 0; i < m.queries.size(); ++i) {
      const std::string c = ctx + " k=" + std::to_string(m.ks[ki]) +
                            " q=" + m.queries[i];
      if (!got.lazy[ki].empty()) {
        ExpectSameAnswer(WithSegments(ref.lazy[ki][i], seg.lazy[ki][i]),
                         got.lazy[ki][i], c + " lazy");
      }
      if (!got.removed[ki].empty()) {
        ExpectSameAnswer(WithSegments(ref.removed[ki][i], seg.removed[ki][i]),
                         got.removed[ki][i], c + " lazy removed");
      }
      if (!got.row[ki].empty()) {
        ExpectSameAnswer(WithSegments(ref.row[ki][i], seg.row[ki][i]),
                         got.row[ki][i], c + " row");
      }
    }
  }
}

/// `KNearestWithPivotRows` at every group size, then the interface form.
inline void CheckGroups(const World& w, const Reads& own, const Reads& ref,
                        const Reads& seg, const PathMatrix& m,
                        const std::string& ctx) {
  const Laesa& index = *w.index;
  const std::size_t nq = m.queries.size();
  const std::size_t shards = index.shard_count();
  std::vector<std::size_t> sizes = m.groups;
  sizes.push_back(0);  // the PivotStageSearcher form, every query at once
  for (std::size_t size : sizes) {
    for (std::size_t ki = 0; ki < m.ks.size(); ++ki) {
      std::vector<Answer> got(nq);
      std::vector<PivotRowQuery> group(nq);
      std::vector<std::vector<NeighborResult>> out(nq);
      std::vector<QueryStats> shard_stats(nq * shards);
      for (std::size_t i = 0; i < nq; ++i) {
        got[i].stats = own.row_stats[i];
        group[i] = {m.queries[i], own.rows[i].data(), &got[i].stats};
      }
      if (size == 0) {
        static_cast<const PivotStageSearcher&>(index).KNearestWithPivotRows(
            group.data(), nq, m.ks[ki], out.data());
      } else {
        for (std::size_t lo = 0; lo < nq; lo += size) {
          index.KNearestWithPivotRows(
              &group[lo], std::min(size, nq - lo), m.ks[ki], &out[lo],
              m.segments ? &shard_stats[lo * shards] : nullptr);
        }
      }
      for (std::size_t i = 0; i < nq; ++i) {
        got[i].neighbors = out[i];
        if (m.segments && size != 0) {
          got[i].segments.assign(shard_stats.begin() + i * shards,
                                 shard_stats.begin() + (i + 1) * shards);
        }
        ExpectSameAnswer(size ? WithSegments(ref.row[ki][i], seg.row[ki][i])
                              : WithoutSegments(ref.row[ki][i]),
                         got[i],
                         ctx + " rows group=" +
                             (size ? std::to_string(size) : "interface") +
                             " k=" + std::to_string(m.ks[ki]) +
                             " q=" + m.queries[i]);
      }
    }
  }
}

/// The batch engine at every thread count: each query's neighbours, and
/// the merged (and per-segment) stats against the reference's sums — minus
/// the duplicate queries' pivot rows on the pivot-stage pipeline.
inline void CheckBatch(const World& w, bool pivot_stage, const Reads& ref,
                       const Reads& seg, const PathMatrix& m,
                       const std::string& ctx) {
  const std::size_t nq = m.queries.size();
  const PrototypeStore batch(m.queries);
  for (std::size_t ki = 0; ki < m.ks.size(); ++ki) {
    const auto& want = pivot_stage ? ref.row[ki] : ref.lazy[ki];
    const auto& want_seg = pivot_stage ? seg.row[ki] : seg.lazy[ki];
    Answer sum;
    sum.segments.resize(m.segments ? w.index->shard_count() : 0);
    for (std::size_t i = 0; i < nq; ++i) {
      if (!pivot_stage) {
        sum.stats += want[i].stats;
      } else {
        sum.stats += ref.sweep[ki][i];
        const auto first = m.queries.begin() + i;
        if (std::find(m.queries.begin(), first, *first) == first) {
          sum.stats += ref.row_stats[i];
        }
      }
      for (std::size_t g = 0; g < sum.segments.size(); ++g) {
        sum.segments[g] += want_seg[i].segments[g];
      }
    }
    for (std::size_t threads : m.threads) {
      BatchQueryEngine::Options opt;
      opt.threads = threads;
      opt.pivot_stage = pivot_stage;
      const BatchQueryEngine engine(*w.index, opt);
      const std::string c = ctx + (pivot_stage ? " batch" : " batch lazy") +
                            " threads=" + std::to_string(threads) +
                            " k=" + std::to_string(m.ks[ki]);
      Answer merged;
      const auto got = engine.KNearest(batch, m.ks[ki], &merged.stats);
      ASSERT_EQ(got.size(), nq) << c;
      for (std::size_t i = 0; i < nq; ++i) {
        ExpectSameAnswer(AnswerOf(want[i].neighbors), AnswerOf(got[i]),
                         c + " q=" + m.queries[i]);
      }
      ExpectSameAnswer(AnswerOf({}, sum.stats), merged, c + " merged");
      if (m.ks[ki] != 1) continue;
      Answer nearest;
      const auto one = engine.Nearest(batch, &nearest.stats,
                                      m.segments ? &nearest.segments : nullptr);
      ASSERT_EQ(one.size(), nq) << c;
      for (std::size_t i = 0; i < nq; ++i) {
        ExpectSameAnswer(AnswerOf(want[i].neighbors), AnswerOf({one[i]}),
                         c + " Nearest q=" + m.queries[i]);
      }
      ExpectSameAnswer(sum, nearest, c + " Nearest merged");
    }
  }
}

/// One router over `built`'s serving snapshot at `replicas`: lazy and row
/// reads against the reference, then the lazy reads again after `Remove`.
inline void CheckRouter(const World& built, std::size_t replicas,
                        const std::string& distance, const Reads& ref,
                        const PathMatrix& m, const std::string& ctx) {
  TempDir dir("cned_matrix_");
  SaveServingSnapshot(*built.index, dir.path);
  ServeOptions opt = TestServeOptions(distance);
  opt.replicas = replicas;
  ServeRouter router(dir.path, opt);
  ASSERT_EQ(router.shard_count(), built.index->shard_count()) << ctx;
  ASSERT_EQ(router.size(), built.index->size()) << ctx;
  ASSERT_EQ(router.replica_count(), replicas) << ctx;
  ASSERT_EQ(router.pivots(), built.index->pivots()) << ctx;
  for (std::size_t i = 0; i < m.queries.size(); ++i) {
    const std::string& q = m.queries[i];
    std::vector<double> row;
    if (Has(m, Entry::kRow)) {
      for (const std::string& p : router.pivot_strings()) {
        row.push_back(router.metric().Distance(q, p));
      }
      EXPECT_EQ(ref.rows[i], row) << ctx << " pivot row q=" << q;
    }
    for (std::size_t ki = 0; ki < m.ks.size(); ++ki) {
      const std::size_t k = m.ks[ki];
      const std::string c = ctx + " k=" + std::to_string(k) + " q=" + q;
      if (Has(m, Entry::kLazy)) {
        ExpectSameAnswer(WithoutSegments(ref.lazy[ki][i]),
                         ServeAnswer(router.KNearest(q, k)), c + " lazy");
      }
      if (Has(m, Entry::kRow)) {
        ExpectSameAnswer(WithoutSegments(ref.row[ki][i]),
                         ServeAnswer(router.KNearestWithRow(q, k, row)),
                         c + " row");
      }
    }
  }
  if (m.removed.empty() || !Has(m, Entry::kLazy)) return;
  for (std::size_t id : m.removed) ASSERT_TRUE(router.Remove(id)) << ctx;
  for (std::size_t ki = 0; ki < m.ks.size(); ++ki) {
    for (std::size_t i = 0; i < m.queries.size(); ++i) {
      const std::string& q = m.queries[i];
      ExpectSameAnswer(WithoutSegments(ref.removed[ki][i]),
                       ServeAnswer(router.KNearest(q, m.ks[ki])),
                       ctx + " k=" + std::to_string(m.ks[ki]) + " q=" + q +
                           " lazy removed");
    }
  }
}

}  // namespace path_matrix

/// Answers every query of `m` along every selected axis and holds each
/// cell to the reference cell of its precision.
inline void RunPathMatrix(const PathMatrix& m) {
  using namespace path_matrix;
  KernelGuard guard;
  std::vector<std::string> kernels = {ActiveSweepKernels().name};
  if (m.kernels) {
    kernels = {"scalar"};
    for (const SweepKernels* k : AvailableSweepKernels()) {
      if (std::string(k->name) != "scalar") kernels.push_back(k->name);
    }
  }
  const bool lazy = Has(m, Entry::kLazy) || Has(m, Entry::kBatchLazy);
  const bool row =
      Has(m, Entry::kRow) || Has(m, Entry::kRows) || Has(m, Entry::kBatch);
  std::vector<std::uint64_t> tombstones(TombstoneWords(m.protos.size()));
  for (std::size_t id : m.removed) SetTombstone(tombstones.data(), id);
  const std::uint64_t* removed =
      m.removed.empty() ? nullptr : tombstones.data();

  for (const std::string& distance : m.distances) {
    const StringDistancePtr dist = MakeDistance(distance);
    for (TablePrecision precision : m.precisions) {
      const std::string tag =
          distance + "_" + TablePrecisionName(precision);
      // Built worlds first, one per layout: each holds its layout's
      // per-segment reference under the reference kernel.
      std::vector<std::unique_ptr<World>> worlds;
      std::vector<std::size_t> layouts = {0};
      layouts.insert(layouts.end(), m.shards.begin(), m.shards.end());
      for (std::size_t l = 0; l < layouts.size(); ++l) {
        worlds.push_back(Build(m, layouts[l], l, dist, precision, tag));
      }
      for (std::size_t l = 0; l < layouts.size(); ++l) {
        if (m.load) worlds.push_back(Open(*worlds[l], true, m, dist));
        if (m.map) worlds.push_back(Open(*worlds[l], false, m, dist));
      }
      const Laesa& reference = *worlds[0]->index;
      Reads ref;
      std::vector<Reads> seg(layouts.size());
      for (const std::string& kernel : kernels) {
        if (m.kernels) {
          ASSERT_TRUE(SetActiveSweepKernels(kernel));
        }
        for (const auto& w : worlds) {
          const std::string ctx = tag + " " + w->layout_name + " " +
                                  w->storage + " kernel " + kernel;
          ASSERT_EQ(w->index->pivots(), reference.pivots()) << ctx;
          // The built worlds under the reference kernel read everything the
          // other cells are held to.
          const bool base = kernel == kernels[0] && w == worlds[w->layout];
          Reads got =
              Read(*w, m, base ? lazy : Has(m, Entry::kLazy),
                   base ? row : Has(m, Entry::kRow) || Has(m, Entry::kRows),
                   removed);
          if (base) seg[w->layout] = got;
          if (w == worlds[0] && kernel == kernels[0]) {
            ref = got;
          } else {
            CompareReads(ref, seg[w->layout], got, m, ctx);
          }
          if (Has(m, Entry::kRows)) {
            CheckGroups(*w, got, ref, seg[w->layout], m, ctx);
          }
          if (Has(m, Entry::kBatchLazy)) {
            CheckBatch(*w, false, ref, seg[w->layout], m, ctx);
          }
          if (Has(m, Entry::kBatch)) {
            CheckBatch(*w, true, ref, seg[w->layout], m, ctx);
          }
        }
        for (std::size_t l = 1; l < layouts.size(); ++l) {
          for (std::size_t replicas : m.replicas) {
            CheckRouter(*worlds[l], replicas, distance, ref, m,
                        tag + " " + worlds[l]->layout_name + " R=" +
                            std::to_string(replicas) + " kernel " + kernel);
          }
        }
      }
    }
  }
}

}  // namespace cned

#endif  // CNED_TESTS_PATH_MATRIX_H_
