#include "search/laesa.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/binary_io.h"
#include "search/pivot_selection.h"
#include "search/pivot_sweep.h"
#include "serve/shard_snapshot.h"

namespace cned {

namespace {

// The selecting constructors' pivots: greedy max-min over the global id
// space of a flat or sharded store, the same sequence for either.
template <typename Store>
std::vector<std::size_t> SelectLaesaPivots(const Store& store,
                                           const StringDistance& distance,
                                           std::size_t num_pivots) {
  if (store.empty()) {
    throw std::invalid_argument("Laesa: empty prototype set");
  }
  num_pivots = std::min(num_pivots, store.size());
  if (num_pivots == 0) {
    throw std::invalid_argument("Laesa: need at least one pivot");
  }
  return SelectPivotsMaxMin(store, distance, num_pivots);
}

// One borrowed store per shard, in shard order.
std::vector<PrototypeStoreRef> ShardStores(const ShardedPrototypeStore& store) {
  std::vector<PrototypeStoreRef> stores;
  stores.reserve(store.shard_count());
  for (std::size_t s = 0; s < store.shard_count(); ++s) {
    stores.emplace_back(store.shard(s));
  }
  return stores;
}

std::vector<std::uint64_t> SegmentSizes(
    const std::vector<SweepSegment>& segments) {
  std::vector<std::uint64_t> sizes(segments.size());
  for (std::size_t g = 0; g < segments.size(); ++g) {
    sizes[g] = segments[g].store->size();
  }
  return sizes;
}

constexpr char kSnapshotMagic[8] = {'C', 'N', 'E', 'D', 'S', 'H', 'L', '1'};
constexpr std::uint32_t kSnapshotVersion = 1;
// Version 2 stores a quantized table: counts {n, segments, np, precision},
// sections segment sizes, pivot ids, the GLOBAL per-row meta
// QuantRowMeta[np], then each segment's code table elem[np * n_g]. f64
// indexes keep writing version 1 byte-identically.
constexpr std::uint32_t kSnapshotVersionQuant = 2;

}  // namespace

Laesa::Laesa(std::vector<PrototypeStoreRef> stores, StringDistancePtr distance)
    : stores_(std::move(stores)), distance_(std::move(distance)) {
  segments_.reserve(stores_.size());
  for (const PrototypeStoreRef& store : stores_) {
    segments_.push_back({size_, &store.get(), {}});
    size_ += store->size();
  }
}

Laesa::Laesa(std::vector<PrototypeStoreRef> stores, StringDistancePtr distance,
             std::vector<std::size_t> pivot_indices,
             TablePrecision precision)
    : Laesa(std::move(stores), std::move(distance)) {
  if (size_ == 0) {
    throw std::invalid_argument("Laesa: empty prototype set");
  }
  if (pivot_indices.empty()) {
    throw std::invalid_argument("Laesa: need at least one pivot");
  }
  // The loaders' validation, thrown as a caller error.
  const std::string why = PivotIds::Invalid(pivot_indices, size_);
  if (!why.empty()) throw std::invalid_argument("Laesa: " + why);
  pivot_table_ = PivotTables(std::move(pivot_indices), size_, "Laesa");
  // Each GLOBAL row is quantized with one meta shared by every segment, so
  // an S-segment build holds exactly the codes and gaps a one-segment
  // build of the same data would.
  pivot_table_.Build(segments_, *distance_, precision);
  BindTables();
  preprocessing_computations_ +=
      static_cast<std::uint64_t>(pivots().size()) * size_;
}

Laesa::Laesa(PrototypeStoreRef prototypes, StringDistancePtr distance,
             std::size_t num_pivots, TablePrecision table_precision)
    : Laesa(prototypes, distance,
            SelectLaesaPivots(prototypes.get(), *distance, num_pivots),
            table_precision) {
  preprocessing_computations_ +=
      static_cast<std::uint64_t>(pivots().size()) * size_;
}

Laesa::Laesa(PrototypeStoreRef prototypes, StringDistancePtr distance,
             std::vector<std::size_t> pivot_indices,
             TablePrecision table_precision)
    : Laesa(std::vector<PrototypeStoreRef>{prototypes}, std::move(distance),
            std::move(pivot_indices), table_precision) {}

Laesa::Laesa(const ShardedPrototypeStore& store, StringDistancePtr distance,
             std::size_t num_pivots, TablePrecision table_precision)
    : Laesa(ShardStores(store), distance,
            SelectLaesaPivots(store, *distance, num_pivots), table_precision) {
  preprocessing_computations_ +=
      static_cast<std::uint64_t>(pivots().size()) * size_;
}

void Laesa::BindTables() {
  for (std::size_t g = 0; g < segments_.size(); ++g) {
    segments_[g].table = pivot_table_.view(g);
  }
}

void Laesa::ComputePivotRow(std::string_view query, double* row,
                            QueryStats* stats) const {
  core().ComputePivotRow(query, row, stats);
}

std::vector<NeighborResult> Laesa::KNearestWithPivotRow(
    std::string_view query, std::size_t k, const double* row,
    QueryStats* stats, QueryStats* shard_stats) const {
  std::vector<NeighborResult> out;
  const PivotRowQuery one{query, row, stats};
  core().Sweep(&one, 1, k, &out, shard_stats);
  return out;
}

void Laesa::KNearestWithPivotRows(const PivotRowQuery* group,
                                  std::size_t count, std::size_t k,
                                  std::vector<NeighborResult>* out) const {
  KNearestWithPivotRows(group, count, k, out, nullptr);
}

void Laesa::KNearestWithPivotRows(const PivotRowQuery* group,
                                  std::size_t count, std::size_t k,
                                  std::vector<NeighborResult>* out,
                                  QueryStats* shard_stats) const {
  const PivotSweep sweep = core();
  for (std::size_t lo = 0; lo < count; lo += kMaxRowQueries) {
    sweep.Sweep(group + lo, std::min(kMaxRowQueries, count - lo), k, out + lo,
                shard_stats == nullptr ? nullptr
                                       : shard_stats + lo * shard_count());
  }
}

std::vector<NeighborResult> Laesa::KNearest(std::string_view query,
                                            std::size_t k,
                                            QueryStats* stats) const {
  return KNearest(query, k, stats, nullptr);
}

std::vector<NeighborResult> Laesa::KNearest(
    std::string_view query, std::size_t k, QueryStats* stats,
    QueryStats* shard_stats, const std::uint64_t* tombstones) const {
  std::vector<NeighborResult> out;
  const PivotRowQuery one{query, /*row=*/nullptr, stats};
  core().Sweep(&one, 1, k, &out, shard_stats, tombstones);
  return out;
}

void Laesa::Save(const std::string& path) const {
  BinaryWriter writer(path);
  const TablePrecision precision = table_precision();
  // f64 is precision code 0, so a version-1 header's fourth count stays
  // zero.
  const std::uint64_t counts[4] = {size_, shard_count(), pivots().size(),
                                   static_cast<std::uint64_t>(precision)};
  writer.Header(kSnapshotMagic,
                precision == TablePrecision::kF64 ? kSnapshotVersion
                                                  : kSnapshotVersionQuant,
                counts, 4);
  const std::vector<std::uint64_t> sizes = SegmentSizes(segments_);
  writer.Align();
  writer.Raw(sizes.data(), sizes.size() * sizeof(std::uint64_t));
  pivot_table_.Write(writer, 0, shard_count());
  writer.Finish();
}

void Laesa::SaveShard(std::size_t s, const std::string& path) const {
  BinaryWriter writer(path);
  const SweepSegment& seg = segments_[s];
  const std::uint64_t counts[6] = {size_, shard_count(), pivots().size(), s,
                                   seg.store->size(), seg.base};
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

void Laesa::SaveRouterManifest(const std::string& path) const {
  BinaryWriter writer(path);
  const std::vector<std::size_t>& pivots = this->pivots();
  std::vector<std::uint64_t> lens(pivots.size());
  std::uint64_t arena_bytes = 0;
  for (std::size_t p = 0; p < pivots.size(); ++p) {
    lens[p] = PivotString(p).size();
    arena_bytes += lens[p];
  }
  // f64 is precision code 0.
  const std::uint64_t counts[5] = {
      size_, shard_count(), pivots.size(), arena_bytes,
      static_cast<std::uint64_t>(table_precision())};
  writer.Header(kRouterManifestMagic, kRouterManifestVersion, counts, 5);
  const std::vector<std::uint64_t> sizes = SegmentSizes(segments_);
  writer.Align();
  writer.Raw(sizes.data(), sizes.size() * sizeof(std::uint64_t));
  writer.Align();
  writer.Raw(pivots.data(), pivots.size() * sizeof(std::uint64_t));
  writer.Align();
  writer.Raw(lens.data(), lens.size() * sizeof(std::uint64_t));
  writer.Align();
  for (std::size_t p = 0; p < pivots.size(); ++p) {
    const std::string_view v = PivotString(p);
    writer.Raw(v.data(), v.size());
  }
  pivot_table_.block().Write(writer, pivots.size());
  writer.Finish();
}

Laesa Laesa::Open(const std::string& path, Laesa shell, bool copy,
                  const char* who) {
  // Load reads every byte anyway, so it always verifies the checksum; Map
  // leaves that to CNED_SNAPSHOT_VERIFY (binary_io.h).
  MappedReader reader(MappedFile::Open(path),
                      copy || SnapshotVerifyEnabled());
  std::uint32_t version = 0;
  const auto counts = reader.Header(kSnapshotMagic, kSnapshotVersion,
                                    kSnapshotVersionQuant, &version);
  const std::uint64_t n = counts[0];
  const std::uint64_t segments = counts[1];
  if (n != shell.size_ || segments != shell.shard_count()) {
    throw std::runtime_error(std::string(who) + ": store shape mismatch");
  }
  const TablePrecision precision =
      version == kSnapshotVersion ? TablePrecision::kF64
                                  : TablePrecisionFromCode(counts[3], who);
  const std::uint64_t* sizes = reader.Array<std::uint64_t>(segments);
  for (std::uint64_t g = 0; g < segments; ++g) {
    if (sizes[g] != shell.segments_[g].store->size()) {
      throw std::runtime_error(std::string(who) + ": shard size mismatch");
    }
  }
  shell.pivot_table_ = PivotTables::Read(
      reader, counts[2], n, std::vector<std::size_t>(sizes, sizes + segments),
      precision, copy, who);
  shell.BindTables();
  return shell;
}

Laesa Laesa::Load(const std::string& path, PrototypeStoreRef prototypes,
                  StringDistancePtr distance) {
  return Open(path, Laesa({prototypes}, std::move(distance)), /*copy=*/true,
              "Laesa::Load");
}

Laesa Laesa::Load(const std::string& path, const ShardedPrototypeStore& store,
                  StringDistancePtr distance) {
  return Open(path, Laesa(ShardStores(store), std::move(distance)),
              /*copy=*/true, "Laesa::Load");
}

Laesa Laesa::Map(const std::string& path, PrototypeStoreRef prototypes,
                 StringDistancePtr distance) {
  return Open(path, Laesa({prototypes}, std::move(distance)), /*copy=*/false,
              "Laesa::Map");
}

Laesa Laesa::Map(const std::string& path, const ShardedPrototypeStore& store,
                 StringDistancePtr distance) {
  return Open(path, Laesa(ShardStores(store), std::move(distance)),
              /*copy=*/false, "Laesa::Map");
}

}  // namespace cned
