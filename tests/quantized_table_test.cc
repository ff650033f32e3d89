// Differential contract for the quantized pivot tables
// (search/table_quant.h) across every serving path:
//
//   * vs f64 — at every quantized precision the returned DISTANCES are
//     exactly the f64 distances (admissible bounds never eliminate a
//     true neighbour; the index is compared tie-tolerantly, since a looser
//     bound may legitimately surface a different member of an exact tie);
//   * within a precision — flat, sharded, mapped and distributed
//     (fork-per-replica ServeRouter, R=2) answers are bit-identical
//     INCLUDING QueryStats, under every available sweep-kernel variant
//     (the path matrix, tests/path_matrix.h).
//
// The second contract is what makes quantization deployable: a mixed fleet
// (AVX2 primaries, scalar standbys, mapped snapshots) at one precision
// must agree byte-for-byte, or replica-group eviction would fire on
// healthy workers.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "datasets/perturb.h"
#include "datasets/prototype_store.h"
#include "distances/registry.h"
#include "search/laesa.h"
#include "search/table_quant.h"
#include "tests/path_matrix.h"
#include "tests/snapshot_test_util.h"

namespace cned {
namespace {

const std::vector<TablePrecision> kQuantPrecisions = {
    TablePrecision::kF32, TablePrecision::kF16, TablePrecision::kU8};

/// Contract 1 over `m`'s flat build: every quantized precision returns the
/// f64 index's distances rank for rank, and never evaluates fewer
/// candidates (quantization only loosens the bounds).
void ExpectExactVsF64(const PathMatrix& m) {
  const PrototypeStore store(m.protos);
  for (const std::string& name : m.distances) {
    auto dist = MakeDistance(name);
    const Laesa reference(store, dist, m.pivots, TablePrecision::kF64);
    for (TablePrecision prec : m.precisions) {
      const Laesa flat(store, dist, m.pivots, prec);
      for (const std::string& q : m.queries) {
        for (std::size_t k : m.ks) {
          const std::string ctx = name + " " + TablePrecisionName(prec) +
                                  " k=" + std::to_string(k) + " q=" + q;
          QueryStats ref_stats, got_stats;
          const auto ref = reference.KNearest(q, k, &ref_stats);
          const auto got = flat.KNearest(q, k, &got_stats);
          ASSERT_EQ(got.size(), ref.size()) << ctx;
          for (std::size_t i = 0; i < ref.size(); ++i) {
            EXPECT_EQ(got[i].distance, ref[i].distance) << ctx << " rank " << i;
          }
          EXPECT_GE(got_stats.distance_computations,
                    ref_stats.distance_computations)
              << ctx;
        }
      }
    }
  }
}

// --- Contract 1: exact results vs f64, bit-identity within a precision ----

TEST(QuantizedTableTest, ResultsMatchF64AcrossFlatShardedAndMappedPaths) {
  PathMatrix m;
  m.protos = Words(150, 8208);
  Rng rng(515);
  m.queries = MakeQueries(m.protos, 10, 2, Alphabet::Latin(), rng);
  m.distances = {"dE", "dYB"};
  m.precisions = kQuantPrecisions;
  m.pivots = 8;
  m.ks = {1, 3};
  ExpectExactVsF64(m);
  // Sharded and mapped are bit-identical to the flat build, stats included
  // (the sharded build quantizes each global row with one shared meta
  // precisely for this).
  m.shards = {4};
  m.map = true;
  RunPathMatrix(m);
}

// --- Contract 2: identity across kernel variants at every precision -------

TEST(QuantizedTableTest, QuantizedIndexBitIdenticalAcrossKernels) {
  PathMatrix m;
  m.protos = Words(160, 8209);
  Rng rng(616);
  m.queries = MakeQueries(m.protos, 8, 2, Alphabet::Latin(), rng);
  m.precisions = kQuantPrecisions;
  m.pivots = 7;
  m.shards = {3};
  m.kernels = true;
  m.ks = {1, 3};
  // Id 0 is the first pivot: the tombstone mask writes +inf after the
  // decode, at every precision and under every kernel.
  m.removed = {0, 9, 57, 158};
  RunPathMatrix(m);
}

// --- Contract 3: the distributed tier serves quantized shards exactly -----

TEST(QuantizedTableTest, DistributedReplicasServeQuantizedBitIdentically) {
  PathMatrix m;
  m.protos = Words(120, 8210);
  Rng rng(717);
  m.queries = MakeQueries(m.protos, 5, 2, Alphabet::Latin(), rng);
  // f32 is covered by the in-process paths above; fork the replica fleet
  // only for the two precisions with nontrivial decode arithmetic.
  m.precisions = {TablePrecision::kF16, TablePrecision::kU8};
  m.pivots = 8;
  m.shards = {3};
  m.replicas = {2};
  m.ks = {3};
  m.removed = {0, 9, 57};
  RunPathMatrix(m);
  // And the distributed quantized answer is the exact f64 answer.
  ExpectExactVsF64(m);
}

}  // namespace
}  // namespace cned
