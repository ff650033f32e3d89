// The pivot-id rule of every pivot-table loader. All of them validate their
// ids through `PivotIds` (search/pivot_sweep.h), so all of them — Load
// and Map over a flat or a sharded store, the serve worker's ShardReplica
// and the ServeRouter manifest — reject an out-of-range id and a repeated
// one alike. Each case feeds one crafted file, at f64 and at u8. The router
// manifest must also reject shard sizes and pivot lengths whose running
// sums wrap, and the worker's slice and the manifest an id count above the
// sweep's 2^31 limit. An id count just below that limit must be served
// without any allocation proportional to it. The worker's begin must
// reject a row list longer than the pivot count or naming a rank outside
// the slice's table. The router reads manifest version 2 only, and
// rejects a pivot block past the end of the file and an unknown
// precision.

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"
#include "datasets/perturb.h"
#include "datasets/prototype_store.h"
#include "datasets/sharded_prototype_store.h"
#include "distances/registry.h"
#include "search/laesa.h"
#include "search/sweep_kernel.h"
#include "search/table_quant.h"
#include "serve/replica.h"
#include "serve/router.h"
#include "serve/shard_snapshot.h"
#include "tests/snapshot_test_util.h"

namespace cned {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kShards = 3;
constexpr TablePrecision kPrecisions[] = {TablePrecision::kF64,
                                          TablePrecision::kU8};

// Byte offset of the first header count (n in every format here).
constexpr std::size_t kHeaderN = 16;

// An id count far above the sweep's 2^31 limit, and above what a rank
// array could ever allocate.
constexpr std::uint64_t kHugeN = std::uint64_t{1} << 62;

// Byte offset of the pivot-id section: right after the 64-byte header in
// the f64 shard slice, after one more 64-byte-aligned leading section (the
// index's segment sizes, the manifest's shard sizes, or the v2 slice's
// {precision, reserved}) in the others.
constexpr std::size_t kPivotsAfterHeader = 64;
constexpr std::size_t kPivotsAfterOneSection = 128;

enum class BadId { kOutOfRange, kDuplicate };

struct Data {
  std::vector<std::string> words = Words(40, 8800);
  PrototypeStore store{words};
  ShardedPrototypeStore sharded{words, kShards};
  StringDistancePtr dist = MakeDistance("dE");
  std::vector<std::string> queries;

  Data() {
    Rng rng(8801);
    queries = MakeQueries(words, 12, 2, Alphabet::Latin(), rng);
  }
};

std::uint64_t ReadU64(const std::vector<char>& bytes, std::size_t offset) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + offset, sizeof(v));
  return v;
}

// Overwrites the u64 at `offset` (after checking that it holds `expected`,
// so a wrong offset fails loudly) and re-stamps the checksum footer, so the
// edit reaches the structural checks.
void PatchU64(const std::string& path, std::size_t offset,
              std::uint64_t expected, std::uint64_t value) {
  std::vector<char> bytes = ReadAll(path);
  ASSERT_EQ(ReadU64(bytes, offset), expected) << path;
  std::memcpy(bytes.data() + offset, &value, sizeof(value));
  WriteAllRestamped(path, bytes);
}

// Overwrites entry `p` of the pivot-id section at `section`.
void PatchPivot(const std::string& path, std::size_t section, std::size_t p,
                std::uint64_t expected, std::uint64_t id) {
  PatchU64(path, section + p * sizeof(std::uint64_t), expected, id);
}

// The id that makes a pivot list bad: past the end, or pivots[0] again.
std::uint64_t BadPivot(BadId bad, const std::vector<std::size_t>& pivots,
                       std::size_t n) {
  return bad == BadId::kOutOfRange ? n + 3 : pivots[0];
}

std::string Context(TablePrecision prec, BadId bad) {
  return std::string(TablePrecisionName(prec)) +
         (bad == BadId::kOutOfRange ? " out-of-range id" : " duplicate id");
}

TEST(PivotTableTest, FlatLoadersRejectOutOfRangeAndDuplicatePivots) {
  Data d;
  for (TablePrecision prec : kPrecisions) {
    const Laesa built(d.store, d.dist, 4, prec);
    for (BadId bad : {BadId::kOutOfRange, BadId::kDuplicate}) {
      const std::string ctx = Context(prec, bad);
      TempFile file("pivots_flat_" + std::to_string(static_cast<int>(bad)));
      built.Save(file.path());
      EXPECT_NO_THROW(Laesa::Load(file.path(), d.store, d.dist));
      PatchPivot(file.path(), kPivotsAfterOneSection, 1, built.pivots()[1],
                 BadPivot(bad, built.pivots(), d.store.size()));
      EXPECT_THROW(Laesa::Load(file.path(), d.store, d.dist),
                   std::runtime_error)
          << ctx;
      EXPECT_THROW(Laesa::Map(file.path(), d.store, d.dist),
                   std::runtime_error)
          << ctx;
    }
  }
}

TEST(PivotTableTest, ShardedLoadersRejectOutOfRangeAndDuplicatePivots) {
  Data d;
  for (TablePrecision prec : kPrecisions) {
    const Laesa built(d.sharded, d.dist, 4, prec);
    for (BadId bad : {BadId::kOutOfRange, BadId::kDuplicate}) {
      const std::string ctx = Context(prec, bad);
      TempFile file("pivots_sharded_" + std::to_string(static_cast<int>(bad)));
      built.Save(file.path());
      EXPECT_NO_THROW(Laesa::Load(file.path(), d.sharded, d.dist));
      PatchPivot(file.path(), kPivotsAfterOneSection, 1, built.pivots()[1],
                 BadPivot(bad, built.pivots(), d.sharded.size()));
      EXPECT_THROW(Laesa::Load(file.path(), d.sharded, d.dist),
                   std::runtime_error)
          << ctx;
      EXPECT_THROW(Laesa::Map(file.path(), d.sharded, d.dist),
                   std::runtime_error)
          << ctx;
    }
  }
}

TEST(PivotTableTest, ShardReplicaRejectsOutOfRangeAndDuplicatePivots) {
  Data d;
  for (TablePrecision prec : kPrecisions) {
    const Laesa built(d.sharded, d.dist, 4, prec);
    // The v2 slice leads with its {precision, reserved} section.
    const std::size_t section = prec == TablePrecision::kF64
                                    ? kPivotsAfterHeader
                                    : kPivotsAfterOneSection;
    for (BadId bad : {BadId::kOutOfRange, BadId::kDuplicate}) {
      const std::string ctx = Context(prec, bad);
      TempDir dir("cned_pivots_");
      SaveServingSnapshot(built, dir.path);
      const std::string store_path = ShardStorePath(dir.path, 1);
      const std::string index_path = ShardIndexPath(dir.path, 1);
      EXPECT_NO_THROW(ShardReplica(store_path, index_path, "dE")) << ctx;
      PatchPivot(index_path, section, 1, built.pivots()[1],
                 BadPivot(bad, built.pivots(), d.sharded.size()));
      EXPECT_THROW(ShardReplica(store_path, index_path, "dE"),
                   std::runtime_error)
          << ctx;
    }
  }
}

TEST(PivotTableTest, ServeRouterRejectsOutOfRangeAndDuplicatePivots) {
  Data d;
  ServeOptions options;
  options.distance = "dE";
  options.replicas = 1;
  for (TablePrecision prec : kPrecisions) {
    const Laesa built(d.sharded, d.dist, 4, prec);
    for (BadId bad : {BadId::kOutOfRange, BadId::kDuplicate}) {
      const std::string ctx = Context(prec, bad);
      TempDir dir("cned_pivots_");
      SaveServingSnapshot(built, dir.path);
      // The manifest is rejected before any worker is spawned.
      PatchPivot(ManifestPath(dir.path), kPivotsAfterOneSection, 1,
                 built.pivots()[1],
                 BadPivot(bad, built.pivots(), d.sharded.size()));
      EXPECT_THROW(ServeRouter(dir.path, options), std::runtime_error) << ctx;
    }
  }
}

TEST(PivotTableTest, ShardReplicaRejectsIdCountAboveSweepLimit) {
  // A slice whose header n is 2^62 (checksum valid) is rejected as a format
  // error.
  Data d;
  const Laesa built(d.sharded, d.dist, 4);
  TempDir dir("cned_pivots_");
  SaveServingSnapshot(built, dir.path);
  const std::string store_path = ShardStorePath(dir.path, 1);
  const std::string index_path = ShardIndexPath(dir.path, 1);
  PatchU64(index_path, kHeaderN, d.sharded.size(), kHugeN);
  try {
    ShardReplica replica(store_path, index_path, "dE");
    FAIL() << "expected the slice to be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("id limit"), std::string::npos)
        << e.what();
  }
}

// The largest id count the sweep accepts.
constexpr std::uint64_t kMaxN = kMaxSweepIds - 1;

// While alive, caps this process's address space at its current size plus
// `headroom`, restoring the old limit on exit; forked workers inherit the
// cap. An allocation proportional to a crafted id count (a 4-byte entry per
// id is 8 GiB at 2^31 - 1) then fails instead of being written.
class AddressSpaceCap {
 public:
  explicit AddressSpaceCap(std::uint64_t headroom) {
    EXPECT_EQ(getrlimit(RLIMIT_AS, &saved_), 0);
    std::uint64_t pages = 0;
    std::ifstream("/proc/self/statm") >> pages;
    EXPECT_GT(pages, 0u);
    rlimit cap = saved_;
    const std::uint64_t want =
        pages * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE)) + headroom;
    if (cap.rlim_cur == RLIM_INFINITY || want < cap.rlim_cur) {
      cap.rlim_cur = want;
    }
    EXPECT_EQ(setrlimit(RLIMIT_AS, &cap), 0);
  }
  ~AddressSpaceCap() { setrlimit(RLIMIT_AS, &saved_); }

 private:
  rlimit saved_{};
};

constexpr std::uint64_t kCapHeadroom = std::uint64_t{2} << 30;  // 2 GiB

void ExpectSamePass(const SweepCompactResult& got,
                    const SweepCompactResult& want, const std::string& ctx) {
  EXPECT_EQ(got.live, want.live) << ctx;
  EXPECT_EQ(got.next, want.next) << ctx;
  EXPECT_EQ(got.next_key, want.next_key) << ctx;
}

// Every pivot row of `q`, as a row read's begin carries them.
std::vector<PivotRow> AllRows(const Laesa& index, const std::string& q) {
  std::vector<double> row(index.num_pivots());
  index.ComputePivotRow(q, row.data(), nullptr);
  std::vector<PivotRow> rows;
  for (std::size_t p = 0; p < row.size(); ++p) rows.push_back({p, row[p]});
  return rows;
}

// A kBeginRow frame's ranks select rows of the mapped table slice, so the
// worker rejects a rank >= num_pivots() and a list longer than
// num_pivots() before touching the slot, and leaves no slot under the
// query id; a valid begin in the same id then serves exactly as a fresh
// one.
TEST(PivotTableTest, ShardReplicaBeginRowRejectsOutOfRangeRows) {
  Data d;
  for (TablePrecision prec : kPrecisions) {
    const std::string ctx = TablePrecisionName(prec);
    const Laesa built(d.sharded, d.dist, 8, prec);
    TempDir dir("cned_pivots_");
    SaveServingSnapshot(built, dir.path);
    ShardReplica replica(ShardStorePath(dir.path, 1),
                         ShardIndexPath(dir.path, 1), "dE");
    const std::size_t np = replica.num_pivots();
    ASSERT_EQ(np, 8u) << ctx;
    const std::string& q = d.queries[0];
    const std::vector<PivotRow> rows = AllRows(built, q);
    const double seed = rows[0].d + 1.0;

    std::vector<PivotRow> bad_rank = {rows[0], {np, rows[1].d}};
    std::vector<PivotRow> too_many = rows;
    too_many.push_back(rows[0]);
    SweepCompactResult next;
    for (const std::vector<PivotRow>& bad : {bad_rank, too_many}) {
      replica.BeginRow(1, q, rows, seed);
      EXPECT_THROW(replica.BeginRow(1, q, bad, seed), std::out_of_range)
          << ctx;
      EXPECT_THROW(replica.Eval(1, replica.base(), kInf, &next),
                   std::out_of_range)
          << ctx;
    }

    const SweepCompactResult want = replica.BeginRow(2, q, rows, seed);
    ExpectSamePass(replica.BeginRow(1, q, rows, seed), want, ctx + " begin");
    SweepCompactResult want_next;
    EXPECT_EQ(replica.Eval(1, want.next, kInf, &next),
              replica.Eval(2, want.next, kInf, &want_next))
        << ctx;
    ExpectSamePass(next, want_next, ctx + " successor");
  }
}

// A slice whose header n is 2^31 - 1 is valid: n only bounds the pivot
// ids. The worker serves it, under a cap far below 4 bytes per id, exactly
// as it serves the true header.
TEST(PivotTableTest, ShardReplicaServesIdCountAtSweepLimit) {
  Data d;
  for (TablePrecision prec : kPrecisions) {
    const std::string ctx = TablePrecisionName(prec);
    const Laesa built(d.sharded, d.dist, 8, prec);
    TempDir dir("cned_pivots_");
    SaveServingSnapshot(built, dir.path);
    const std::string store_path = ShardStorePath(dir.path, 1);
    const std::string index_path = ShardIndexPath(dir.path, 1);
    ShardReplica ref(store_path, index_path, "dE");
    const std::string crafted_path = index_path + ".crafted";
    std::filesystem::copy_file(index_path, crafted_path);
    PatchU64(crafted_path, kHeaderN, d.sharded.size(), kMaxN);

    const std::string& q = d.queries[1];
    const std::vector<PivotRow> rows = AllRows(built, q);
    const double seed =
        std::min_element(rows.begin(), rows.end(),
                         [](const PivotRow& a, const PivotRow& b) {
                           return a.d < b.d;
                         })->d +
        1.0;
    // A lazy read's begin: the rows its pivot phase visited.
    const std::vector<PivotRow> visited(rows.begin(), rows.begin() + 3);
    const std::size_t id = ref.base() + 2;

    AddressSpaceCap cap(kCapHeadroom);
    std::unique_ptr<ShardReplica> got;
    ASSERT_NO_THROW(got = std::make_unique<ShardReplica>(store_path,
                                                         crafted_path, "dE"))
        << ctx;
    EXPECT_EQ(got->total_size(), kMaxN) << ctx;
    // Each eval's distance and successor, from the crafted and the true
    // slice.
    const auto expect_same_eval = [&](std::uint32_t qid, std::size_t c,
                                      const std::string& what) {
      SweepCompactResult got_next, ref_next;
      EXPECT_EQ(got->Eval(qid, c, kInf, &got_next),
                ref.Eval(qid, c, kInf, &ref_next))
          << what;
      ExpectSamePass(got_next, ref_next, what);
    };
    const SweepCompactResult head = ref.BeginRow(1, q, rows, seed);
    ExpectSamePass(got->BeginRow(1, q, rows, seed), head,
                   ctx + " begin row");
    expect_same_eval(1, head.next, ctx + " row eval");
    expect_same_eval(1, id, ctx + " row eval of any id");
    const SweepCompactResult visited_head =
        ref.BeginRow(2, q, visited, rows[0].d + 1.0);
    ExpectSamePass(got->BeginRow(2, q, visited, rows[0].d + 1.0),
                   visited_head, ctx + " begin visited rows");
    expect_same_eval(2, visited_head.next, ctx + " visited rows eval");
  }
}

// A manifest whose n is 2^31 - 1 (the last shard stretched to cover it) is
// valid, and the router serves its lazy and row reads under the same cap.
// Its workers map the true slices and its pivot block is the true one, so
// every reply is the in-process index's.
TEST(PivotTableTest, ServeRouterServesIdCountAtSweepLimit) {
  Data d;
  const Laesa built(d.sharded, d.dist, 4);
  TempDir dir("cned_pivots_");
  SaveServingSnapshot(built, dir.path);
  const std::string manifest = ManifestPath(dir.path);
  const std::size_t last = kShards - 1;
  const std::size_t tail = d.sharded.shard(last).size();
  PatchU64(manifest, kHeaderN, d.sharded.size(), kMaxN);
  // The shard-size section follows the 64-byte header.
  PatchU64(manifest, 64 + last * sizeof(std::uint64_t), tail,
           kMaxN - (d.sharded.size() - tail));

  ServeOptions options;
  options.distance = "dE";
  options.replicas = 1;
  AddressSpaceCap cap(kCapHeadroom);
  std::unique_ptr<ServeRouter> router;
  ASSERT_NO_THROW(router = std::make_unique<ServeRouter>(dir.path, options));
  EXPECT_EQ(router->size(), kMaxN);
  std::vector<double> row(built.num_pivots());
  for (const std::string& q : d.queries) {
    QueryStats stats;
    built.ComputePivotRow(q, row.data(), &stats);
    const std::vector<NeighborResult> want =
        built.KNearestWithPivotRow(q, 3, row.data(), &stats);
    const ServeResult got = router->KNearestWithRow(q, 3, row);
    EXPECT_FALSE(got.partial) << q;
    ASSERT_EQ(got.neighbors.size(), want.size()) << q;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got.neighbors[i].index, want[i].index) << q;
      EXPECT_EQ(got.neighbors[i].distance, want[i].distance) << q;
    }
    EXPECT_EQ(got.stats.distance_computations, stats.distance_computations)
        << q;
    EXPECT_EQ(got.stats.bounded_abandons, stats.bounded_abandons) << q;

    QueryStats lazy_stats;
    const std::vector<NeighborResult> lazy_want =
        built.KNearest(q, 3, &lazy_stats);
    const ServeResult lazy = router->KNearest(q, 3);
    EXPECT_FALSE(lazy.partial) << q;
    ASSERT_EQ(lazy.neighbors.size(), lazy_want.size()) << q;
    for (std::size_t i = 0; i < lazy_want.size(); ++i) {
      EXPECT_EQ(lazy.neighbors[i].index, lazy_want[i].index) << q;
      EXPECT_EQ(lazy.neighbors[i].distance, lazy_want[i].distance) << q;
    }
    EXPECT_EQ(lazy.stats.distance_computations,
              lazy_stats.distance_computations)
        << q;
    EXPECT_EQ(lazy.stats.pivot_computations, lazy_stats.pivot_computations)
        << q;
    EXPECT_EQ(lazy.stats.bounded_abandons, lazy_stats.bounded_abandons) << q;
  }
}

// Writes a router manifest from its parts, checksum footer included: the
// v1 sections, then for a later version `block` f64 entries of pivot
// block (np * np in a well-formed f64 manifest).
void WriteManifest(const std::string& dir, std::uint32_t version,
                   const std::vector<std::uint64_t>& counts,
                   const std::vector<std::uint64_t>& sizes,
                   const std::vector<std::uint64_t>& pivots,
                   const std::vector<std::uint64_t>& lens,
                   const std::string& arena, std::size_t block = 0) {
  BinaryWriter writer(ManifestPath(dir));
  writer.Header(kRouterManifestMagic, version, counts.data(), counts.size());
  for (const std::vector<std::uint64_t>* section : {&sizes, &pivots, &lens}) {
    writer.Align();
    writer.Raw(section->data(), section->size() * sizeof(std::uint64_t));
  }
  writer.Align();
  writer.Raw(arena.data(), arena.size());
  if (version > 1) {
    const std::vector<double> entries(block, 1.0);
    writer.Align();
    writer.Raw(entries.data(), entries.size() * sizeof(double));
  }
  writer.Finish();
}

// Expects `ServeRouter` to reject the manifest in `dir` with a message
// containing `reason`: rejected for it before any worker is spawned, not
// because the (absent) shard files kept every worker from coming up.
void ExpectManifestRejected(const std::string& dir, const std::string& reason) {
  ServeOptions options;
  options.distance = "dE";
  options.replicas = 1;
  try {
    ServeRouter router(dir, options);
    FAIL() << "expected the manifest to be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
        << e.what();
  }
}

TEST(PivotTableTest, ServeRouterRejectsIdCountAboveSweepLimit) {
  // n = 2^62 with one shard of that size: every other count and section is
  // consistent, so only the id limit can reject it.
  TempDir dir("cned_pivots_");
  WriteManifest(dir.path, kRouterManifestVersion,
                {/*n=*/kHugeN, /*shards=*/1, /*np=*/1, /*arena_bytes=*/1,
                 /*precision=*/0},
                {kHugeN}, {0}, {1}, "a", 1);
  ExpectManifestRejected(dir.path, "id limit");
}

TEST(PivotTableTest, ServeRouterRejectsPivotLengthsThatWrap) {
  // Lengths {2^64 - 1, 1} sum to the arena's 0 bytes modulo 2^64.
  TempDir dir("cned_pivots_");
  WriteManifest(dir.path, kRouterManifestVersion,
                {/*n=*/10, /*shards=*/1, /*np=*/2, /*arena_bytes=*/0,
                 /*precision=*/0},
                {10}, {0, 1}, {~std::uint64_t{0}, 1}, "", 4);
  ExpectManifestRejected(dir.path, "pivot lengths");
}

TEST(PivotTableTest, ServeRouterRejectsShardSizesThatWrap) {
  // Sizes {2^64 - 5, 15} sum to n = 10 modulo 2^64, but the bases
  // {0, 2^64 - 5, 10} do not ascend. Everything else in the manifest is
  // well formed, checksum included.
  TempDir dir("cned_pivots_");
  WriteManifest(dir.path, kRouterManifestVersion,
                {/*n=*/10, /*shards=*/2, /*np=*/1, /*arena_bytes=*/1,
                 /*precision=*/0},
                {~std::uint64_t{0} - 4, 15}, {0}, {1}, "a", 1);
  ExpectManifestRejected(dir.path, "shard sizes");
}

TEST(PivotTableTest, ServeRouterRejectsVersionOneManifest) {
  // A well-formed v1 manifest: no precision, no pivot block.
  TempDir dir("cned_pivots_");
  WriteManifest(dir.path, 1,
                {/*n=*/10, /*shards=*/1, /*np=*/1, /*arena_bytes=*/1}, {10},
                {0}, {1}, "a");
  ExpectManifestRejected(dir.path, "version");
}

TEST(PivotTableTest, ServeRouterRejectsPivotBlockPastTheEnd) {
  // Three pivots need a 9-entry block (72 bytes); the file holds one entry
  // and its padding, and ends 8 bytes short of the block's extent.
  TempDir dir("cned_pivots_");
  WriteManifest(dir.path, kRouterManifestVersion,
                {/*n=*/10, /*shards=*/1, /*np=*/3, /*arena_bytes=*/3,
                 /*precision=*/0},
                {10}, {0, 1, 2}, {1, 1, 1}, "abc", 1);
  ExpectManifestRejected(dir.path, "truncated");
}

TEST(PivotTableTest, ServeRouterRejectsUnknownPrecision) {
  TempDir dir("cned_pivots_");
  WriteManifest(dir.path, kRouterManifestVersion,
                {/*n=*/10, /*shards=*/1, /*np=*/1, /*arena_bytes=*/1,
                 /*precision=*/7},
                {10}, {0}, {1}, "a", 1);
  ExpectManifestRejected(dir.path, "precision");
}

}  // namespace
}  // namespace cned
