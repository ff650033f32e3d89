#include "search/sharded_laesa.h"

#include <algorithm>
#include <stdexcept>

#include "common/binary_io.h"
#include "search/pivot_selection.h"
#include "search/pivot_sweep.h"
#include "serve/shard_snapshot.h"

namespace cned {

namespace {

// One sweep segment per shard, in shard order; the tables fill in each
// segment's view.
std::vector<SweepSegment> ShardSegments(const ShardedPrototypeStore& store) {
  std::vector<SweepSegment> segments(store.shard_count());
  for (std::size_t s = 0; s < segments.size(); ++s) {
    segments[s] = {store.shard_base(s), &store.shard(s), {}};
  }
  return segments;
}

}  // namespace

ShardedLaesa::ShardedLaesa(const ShardedPrototypeStore& store,
                           StringDistancePtr distance, std::size_t num_pivots,
                           TablePrecision table_precision)
    : store_(&store), distance_(std::move(distance)) {
  if (store.empty()) {
    throw std::invalid_argument("ShardedLaesa: empty prototype set");
  }
  num_pivots = std::min(num_pivots, store.size());
  if (num_pivots == 0) {
    throw std::invalid_argument("ShardedLaesa: need at least one pivot");
  }
  // Max-min selection over the global index space — the exact sequence the
  // flat index picks, so a sharded and a flat build of the same data share
  // pivots (and therefore search trajectories).
  const std::size_t n = store.size();
  pivot_table_ = PivotTables(
      SelectPivotsMaxMin(store, *distance_, num_pivots), n,
      /*distinct=*/true, "ShardedLaesa");
  // Each GLOBAL row is quantized with one meta shared by every shard, so a
  // sharded build holds exactly the codes and gaps a flat build of the same
  // data would — sharded results stay bit-identical to flat at any
  // precision.
  pivot_table_.Build(ShardSegments(store), *distance_, table_precision);
  // Pivot selection and the table build cost pivots x N evaluations each.
  preprocessing_computations_ +=
      2 * static_cast<std::uint64_t>(pivots().size()) * n;
}

// The sharded index is the S-segment table of the shared sweep core
// (pivot_sweep.h): one segment per shard, in shard order. The core merges
// the per-shard passes in that order and fans them out through ParallelFor
// when enough candidates survive, so results and QueryStats equal the flat
// index's on any shard count.
PivotSweep ShardedLaesa::core() const {
  return pivot_table_.Sweep(ShardSegments(*store_), *distance_);
}

void ShardedLaesa::ComputePivotRow(std::string_view query, double* row,
                                   QueryStats* stats) const {
  core().ComputePivotRow(query, row, stats);
}

std::vector<NeighborResult> ShardedLaesa::KNearest(std::string_view query,
                                                   std::size_t k,
                                                   QueryStats* stats) const {
  return core().Lazy(query, k, stats);
}

std::vector<NeighborResult> ShardedLaesa::KNearest(
    std::string_view query, std::size_t k, QueryStats* stats,
    QueryStats* shard_stats) const {
  return core().Lazy(query, k, stats, shard_stats);
}

std::vector<NeighborResult> ShardedLaesa::KNearestWithPivotRow(
    std::string_view query, std::size_t k, const double* row,
    QueryStats* stats) const {
  return core().WithRow(query, k, row, stats);
}

std::vector<NeighborResult> ShardedLaesa::KNearestWithPivotRow(
    std::string_view query, std::size_t k, const double* row,
    QueryStats* stats, QueryStats* shard_stats) const {
  return core().WithRow(query, k, row, stats, shard_stats);
}

namespace {
constexpr char kShardedLaesaMagic[8] = {'C', 'N', 'E', 'D', 'S', 'H', 'L', '1'};
constexpr std::uint32_t kShardedLaesaVersion = 1;
// Version 2 stores a quantized table: counts {n, shards, np, precision},
// sections shard sizes, pivot ids, the GLOBAL per-row meta
// QuantRowMeta[np], then each shard's code table elem[np * n_s]. f64
// indices keep writing version 1 byte-identically.
constexpr std::uint32_t kShardedLaesaVersionQuant = 2;

std::vector<std::uint64_t> ShardSizes(const ShardedPrototypeStore& store) {
  std::vector<std::uint64_t> sizes(store.shard_count());
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    sizes[s] = store.shard(s).size();
  }
  return sizes;
}
}  // namespace

void ShardedLaesa::Save(const std::string& path) const {
  BinaryWriter writer(path);
  const TablePrecision precision = table_precision();
  // f64 is precision code 0, so a version-1 header's fourth count stays
  // zero.
  const std::uint64_t counts[4] = {store_->size(), store_->shard_count(),
                                   pivots().size(),
                                   static_cast<std::uint64_t>(precision)};
  writer.Header(kShardedLaesaMagic,
                precision == TablePrecision::kF64 ? kShardedLaesaVersion
                                                  : kShardedLaesaVersionQuant,
                counts, 4);
  const std::vector<std::uint64_t> sizes = ShardSizes(*store_);
  writer.Align();
  writer.Raw(sizes.data(), sizes.size() * sizeof(std::uint64_t));
  pivot_table_.Write(writer, 0, store_->shard_count());
  writer.Finish();
}

void ShardedLaesa::SaveShard(std::size_t s, const std::string& path) const {
  BinaryWriter writer(path);
  const std::uint64_t counts[6] = {store_->size(),   store_->shard_count(),
                                   pivots().size(),  s,
                                   store_->shard(s).size(),
                                   store_->shard_base(s)};
  if (table_precision() == TablePrecision::kF64) {
    writer.Header(kShardSliceMagic, kShardSliceVersion, counts, 6);
  } else {
    // All six header counts are taken, so v2 leads with an extra
    // {precision, reserved} section (see serve/shard_snapshot.h).
    writer.Header(kShardSliceMagic, kShardSliceVersionQuant, counts, 6);
    const std::uint64_t prec[2] = {
        static_cast<std::uint64_t>(table_precision()), 0};
    writer.Align();
    writer.Raw(prec, sizeof(prec));
  }
  pivot_table_.Write(writer, s, s + 1);
  writer.Finish();
}

void ShardedLaesa::SaveRouterManifest(const std::string& path) const {
  BinaryWriter writer(path);
  const std::vector<std::size_t>& pivots = this->pivots();
  std::vector<std::uint64_t> lens(pivots.size());
  std::uint64_t arena_bytes = 0;
  for (std::size_t p = 0; p < pivots.size(); ++p) {
    lens[p] = store_->view(pivots[p]).size();
    arena_bytes += lens[p];
  }
  const std::uint64_t counts[4] = {store_->size(), store_->shard_count(),
                                   pivots.size(), arena_bytes};
  writer.Header(kRouterManifestMagic, kRouterManifestVersion, counts, 4);
  const std::vector<std::uint64_t> sizes = ShardSizes(*store_);
  writer.Align();
  writer.Raw(sizes.data(), sizes.size() * sizeof(std::uint64_t));
  writer.Align();
  writer.Raw(pivots.data(), pivots.size() * sizeof(std::uint64_t));
  writer.Align();
  writer.Raw(lens.data(), lens.size() * sizeof(std::uint64_t));
  writer.Align();
  for (std::size_t p : pivots) {
    const std::string_view v = store_->view(p);
    writer.Raw(v.data(), v.size());
  }
  writer.Finish();
}

ShardedLaesa ShardedLaesa::Open(const std::string& path,
                                const ShardedPrototypeStore& store,
                                StringDistancePtr distance, bool copy,
                                const char* who) {
  // Load reads every byte anyway, so it always verifies the checksum; Map
  // leaves that to CNED_SNAPSHOT_VERIFY (binary_io.h).
  MappedReader reader(MappedFile::Open(path),
                      copy || SnapshotVerifyEnabled());
  std::uint32_t version = 0;
  const auto counts = reader.Header(kShardedLaesaMagic, kShardedLaesaVersion,
                                    kShardedLaesaVersionQuant, &version);
  const std::uint64_t n = counts[0];
  const std::uint64_t shards = counts[1];
  if (n != store.size() || shards != store.shard_count()) {
    throw std::runtime_error(std::string(who) + ": store shape mismatch");
  }
  const TablePrecision precision =
      version == kShardedLaesaVersion ? TablePrecision::kF64
                                      : TablePrecisionFromCode(counts[3], who);
  const std::uint64_t* sizes = reader.Array<std::uint64_t>(shards);
  for (std::uint64_t s = 0; s < shards; ++s) {
    if (sizes[s] != store.shard(s).size()) {
      throw std::runtime_error(std::string(who) + ": shard size mismatch");
    }
  }
  ShardedLaesa index(InternalTag{}, store, std::move(distance));
  index.pivot_table_ = PivotTables::Read(
      reader, counts[2], n, std::vector<std::size_t>(sizes, sizes + shards),
      precision, /*distinct=*/true, copy, who);
  return index;
}

ShardedLaesa ShardedLaesa::Load(const std::string& path,
                                const ShardedPrototypeStore& store,
                                StringDistancePtr distance) {
  return Open(path, store, std::move(distance), /*copy=*/true,
              "ShardedLaesa::Load");
}

ShardedLaesa ShardedLaesa::Map(const std::string& path,
                               const ShardedPrototypeStore& store,
                               StringDistancePtr distance) {
  return Open(path, store, std::move(distance), /*copy=*/false,
              "ShardedLaesa::Map");
}

}  // namespace cned
