// The pivot-id rule of every pivot-table loader. All of them rank their
// ids through `RankPivots` (search/pivot_sweep.h), so all of them — Load
// and Map over a flat or a sharded store, the serve worker's ShardReplica
// and the ServeRouter manifest — reject an out-of-range id and a repeated
// one alike. Each case feeds one crafted file, at f64 and at u8. The router
// manifest must also reject shard sizes and pivot lengths whose running
// sums wrap, and the worker's slice and the manifest an id count above the
// sweep's 2^31 limit. The worker's lazy step must reject a pivot rank
// outside the slice's table.

#include <gtest/gtest.h>

#include <stdlib.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
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
#include "search/table_quant.h"
#include "serve/replica.h"
#include "serve/router.h"
#include "serve/shard_snapshot.h"
#include "tests/snapshot_test_util.h"

namespace cned {
namespace {

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

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl = std::string(::testing::TempDir()) + "cned_pivots_XXXXXX";
    const char* p = mkdtemp(tmpl.data());
    EXPECT_NE(p, nullptr);
    path = tmpl;
  }
  ~TempDir() { std::filesystem::remove_all(path); }
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
      TempDir dir;
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
      TempDir dir;
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
  // error before its n-entry rank array is allocated.
  Data d;
  const Laesa built(d.sharded, d.dist, 4);
  TempDir dir;
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

// A kStep frame's pivot rank selects a row of the mapped table slice, so the
// worker rejects a rank outside [-1, num_pivots()) before touching the slot;
// the slot then steps exactly as a fresh one does.
TEST(PivotTableTest, ShardReplicaStepRejectsOutOfRangeRank) {
  Data d;
  for (TablePrecision prec : kPrecisions) {
    const std::string ctx = TablePrecisionName(prec);
    const Laesa built(d.sharded, d.dist, 8, prec);
    TempDir dir;
    SaveServingSnapshot(built, dir.path);
    ShardReplica replica(ShardStorePath(dir.path, 1),
                         ShardIndexPath(dir.path, 1), "dE");
    const auto np = static_cast<std::int32_t>(replica.num_pivots());
    ASSERT_EQ(np, 8) << ctx;
    const std::string& q = d.queries[0];
    const std::size_t pivot = built.pivots()[0];
    const double dist = d.dist->Distance(q, d.words[pivot]);
    const auto skip = static_cast<std::uint32_t>(pivot);
    const double bound = dist + 1.0;

    replica.BeginLazy(1, q);
    const std::size_t live = replica.live(1);
    const std::size_t live_pivots = replica.live_pivots(1);
    for (const std::int32_t rank : {np, std::int32_t{-2}}) {
      EXPECT_THROW(replica.Step(1, skip, rank, dist, bound), std::out_of_range)
          << ctx << " rank " << rank;
      EXPECT_EQ(replica.live(1), live) << ctx << " rank " << rank;
      EXPECT_EQ(replica.live_pivots(1), live_pivots) << ctx << " rank " << rank;
    }

    replica.BeginLazy(2, q);
    const SweepCompactResult want = replica.Step(2, skip, 0, dist, bound);
    const SweepCompactResult got = replica.Step(1, skip, 0, dist, bound);
    EXPECT_EQ(got.live, want.live) << ctx;
    EXPECT_EQ(got.pivots_died, want.pivots_died) << ctx;
    EXPECT_EQ(got.next, want.next) << ctx;
    EXPECT_EQ(got.next_key, want.next_key) << ctx;
    EXPECT_EQ(got.next_pivot, want.next_pivot) << ctx;
    EXPECT_EQ(got.next_pivot_key, want.next_pivot_key) << ctx;
    EXPECT_EQ(replica.live_pivots(1), replica.live_pivots(2)) << ctx;
  }
}

// Writes a router manifest from its parts, checksum footer included.
void WriteManifest(const std::string& dir, const std::uint64_t counts[4],
                   const std::vector<std::uint64_t>& sizes,
                   const std::vector<std::uint64_t>& pivots,
                   const std::vector<std::uint64_t>& lens,
                   const std::string& arena) {
  BinaryWriter writer(ManifestPath(dir));
  writer.Header(kRouterManifestMagic, kRouterManifestVersion, counts, 4);
  for (const std::vector<std::uint64_t>* section : {&sizes, &pivots, &lens}) {
    writer.Align();
    writer.Raw(section->data(), section->size() * sizeof(std::uint64_t));
  }
  writer.Align();
  writer.Raw(arena.data(), arena.size());
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
  TempDir dir;
  const std::uint64_t counts[4] = {/*n=*/kHugeN, /*shards=*/1, /*np=*/1,
                                   /*arena_bytes=*/1};
  WriteManifest(dir.path, counts, {kHugeN}, {0}, {1}, "a");
  ExpectManifestRejected(dir.path, "id limit");
}

TEST(PivotTableTest, ServeRouterRejectsPivotLengthsThatWrap) {
  // Lengths {2^64 - 1, 1} sum to the arena's 0 bytes modulo 2^64.
  TempDir dir;
  const std::uint64_t counts[4] = {/*n=*/10, /*shards=*/1, /*np=*/2,
                                   /*arena_bytes=*/0};
  WriteManifest(dir.path, counts, {10}, {0, 1}, {~std::uint64_t{0}, 1}, "");
  ExpectManifestRejected(dir.path, "pivot lengths");
}

TEST(PivotTableTest, ServeRouterRejectsShardSizesThatWrap) {
  // Sizes {2^64 - 5, 15} sum to n = 10 modulo 2^64, but the bases
  // {0, 2^64 - 5, 10} do not ascend. Everything else in the manifest is
  // well formed, checksum included.
  TempDir dir;
  const std::uint64_t counts[4] = {/*n=*/10, /*shards=*/2, /*np=*/1,
                                   /*arena_bytes=*/1};
  WriteManifest(dir.path, counts, {~std::uint64_t{0} - 4, 15}, {0}, {1}, "a");
  ExpectManifestRejected(dir.path, "shard sizes");
}

}  // namespace
}  // namespace cned
