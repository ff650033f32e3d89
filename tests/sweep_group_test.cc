// The row sweep over a group of queries: `Laesa::KNearestWithPivotRows`
// applies the pivot rows of up to kMaxRowQueries queries in one pass over
// each segment's table (`update_lower_rows`, search/sweep_kernel.h), and
// the batch engine hands it groups of consecutive queries. Every query must
// still answer exactly as the per-query `KNearestWithPivotRow` does:
// neighbours, distances, every `QueryStats` field and the per-segment
// counters, for every group size (including a short tail group), segment
// count, table precision and forced kernel variant (the path matrix,
// tests/path_matrix.h).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "datasets/perturb.h"
#include "search/table_quant.h"
#include "strings/alphabet.h"
#include "tests/path_matrix.h"
#include "tests/snapshot_test_util.h"

namespace cned {
namespace {

/// Seven queries: perturbed words, one of them twice (two slabs of one
/// group hold the same bounds) and one a prototype itself (distance 0).
std::vector<std::string> GroupQueries(const std::vector<std::string>& words,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> queries =
      MakeQueries(words, 5, 2, Alphabet::Latin(), rng);
  queries.push_back(queries[1]);
  queries.push_back(words[17]);
  return queries;
}

/// dC over a flat and a three-shard layout, at every precision and kernel,
/// with per-segment stats.
PathMatrix GroupMatrix(std::vector<std::string> words) {
  PathMatrix m;
  m.protos = std::move(words);
  m.distances = {"dC"};
  m.precisions = {TablePrecision::kF64, TablePrecision::kF32,
                  TablePrecision::kF16, TablePrecision::kU8};
  m.shards = {3};
  m.kernels = true;
  m.ks = {1, 5};
  m.segments = true;
  return m;
}

TEST(SweepGroupTest, GroupEntryMatchesPerQueryRowSweep) {
  PathMatrix m = GroupMatrix(Words(160, 20261019));
  m.queries = GroupQueries(m.protos, 3401);
  m.entries = {Entry::kRow, Entry::kRows};
  RunPathMatrix(m);
}

// The batch engine's pivot pipeline runs its sweeps in groups of
// consecutive queries; `Nearest` with per-shard stats and `KNearest` must
// still equal the per-query row sweeps, the merged stats their sums plus
// the deduplicated pivot rows, at every thread count and so every group
// size.
TEST(SweepGroupTest, BatchEngineGroupsMatchPerQueryRowSweep) {
  PathMatrix m = GroupMatrix(Words(140, 20261020));
  m.queries = GroupQueries(m.protos, 3402);
  const std::vector<std::string> more = GroupQueries(m.protos, 3403);
  m.queries.insert(m.queries.end(), more.begin(), more.end());
  m.entries = {Entry::kBatch};
  // 14 queries on 1 and 3 threads run in groups of 4 (a tail of 2), on 5 in
  // groups of 2 and on 8 in groups of 1.
  m.threads = {1, 3, 5, 8};
  RunPathMatrix(m);
}

}  // namespace
}  // namespace cned
