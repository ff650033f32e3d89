#include "search/sharded_laesa.h"

#include <algorithm>
#include <stdexcept>

#include "common/binary_io.h"
#include "search/pivot_selection.h"
#include "search/pivot_sweep.h"
#include "serve/shard_snapshot.h"

namespace cned {

ShardedLaesa::ShardedLaesa(const ShardedPrototypeStore& store,
                           StringDistancePtr distance, std::size_t num_pivots,
                           std::size_t first_pivot,
                           TablePrecision table_precision)
    : store_(&store),
      distance_(std::move(distance)),
      precision_(table_precision),
      // One (still empty) table per shard, so core() can view them before
      // the build below fills them.
      tables_(store.shard_count()),
      quant_tables_(store.shard_count()) {
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
  pivots_ = SelectPivotsMaxMin(store, *distance_, num_pivots, first_pivot);
  const std::size_t n = store.size();
  pivot_rank_.assign(n, -1);
  for (std::size_t p = 0; p < pivots_.size(); ++p) {
    if (pivot_rank_[pivots_[p]] >= 0) {
      throw std::invalid_argument("ShardedLaesa: duplicate pivot index");
    }
    pivot_rank_[pivots_[p]] = static_cast<std::int32_t>(p);
  }
  // Each GLOBAL row is quantized with one meta shared by every shard, so a
  // sharded build holds exactly the codes and gaps a flat build of the same
  // data would — sharded results stay bit-identical to flat at any
  // precision.
  PivotTables tables = core().BuildTables(precision_);
  // Pivot selection and the table build cost pivots x N evaluations each.
  preprocessing_computations_ +=
      2 * static_cast<std::uint64_t>(pivots_.size()) * n;
  tables_ = std::move(tables.f64);
  quant_tables_ = std::move(tables.codes);
  row_meta_ = std::move(tables.meta);
}

// The sharded index is the S-segment table of the shared sweep core
// (pivot_sweep.h): one segment per shard, in shard order. The core merges
// the per-shard passes in that order and fans them out through ParallelFor
// when enough candidates survive, so results and QueryStats equal the flat
// index's on any shard count.
PivotSweep ShardedLaesa::core() const {
  std::vector<SweepSegment> segments(store_->shard_count());
  for (std::size_t s = 0; s < segments.size(); ++s) {
    segments[s] = {store_->shard_base(s), &store_->shard(s), shard_view(s)};
  }
  return PivotSweep(std::move(segments), pivots_, pivot_rank_.data(),
                    *distance_);
}

void ShardedLaesa::ComputePivotRow(std::string_view query, double* row,
                                   QueryStats* stats) const {
  core().ComputePivotRow(query, row, stats);
}

NeighborResult ShardedLaesa::Nearest(std::string_view query,
                                     QueryStats* stats) const {
  return Nearest(query, stats, nullptr);
}

NeighborResult ShardedLaesa::Nearest(std::string_view query, QueryStats* stats,
                                     QueryStats* shard_stats) const {
  return core().Lazy(query, 1, /*slack=*/1.0, stats, shard_stats).front();
}

NeighborResult ShardedLaesa::NearestApprox(std::string_view query,
                                           double epsilon,
                                           QueryStats* stats) const {
  if (epsilon < 0.0) {
    throw std::invalid_argument(
        "ShardedLaesa::NearestApprox: epsilon must be >= 0");
  }
  return core().Lazy(query, 1, 1.0 + epsilon, stats).front();
}

std::vector<NeighborResult> ShardedLaesa::KNearest(std::string_view query,
                                                   std::size_t k,
                                                   QueryStats* stats) const {
  return core().Lazy(query, k, /*slack=*/1.0, stats);
}

std::vector<NeighborResult> ShardedLaesa::KNearest(
    std::string_view query, std::size_t k, QueryStats* stats,
    QueryStats* shard_stats) const {
  return core().Lazy(query, k, /*slack=*/1.0, stats, shard_stats);
}

NeighborResult ShardedLaesa::NearestWithPivotRow(std::string_view query,
                                                 const double* row,
                                                 QueryStats* stats) const {
  return core().WithRow(query, 1, row, stats).front();
}

NeighborResult ShardedLaesa::NearestWithPivotRow(std::string_view query,
                                                 const double* row,
                                                 QueryStats* stats,
                                                 QueryStats* shard_stats)
    const {
  return core().WithRow(query, 1, row, stats, shard_stats).front();
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

TablePrecision CheckedShardPrecision(std::uint64_t raw, const char* who) {
  if (raw < 1 || raw > 3) {
    throw std::runtime_error(std::string(who) + ": bad table precision");
  }
  return static_cast<TablePrecision>(static_cast<std::uint32_t>(raw));
}
}  // namespace

void ShardedLaesa::Save(const std::string& path) const {
  BinaryWriter writer(path);
  std::vector<std::uint64_t> sizes(store_->shard_count());
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    sizes[s] = store_->shard(s).size();
  }
  static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
                "64-bit pivot indices expected");
  if (precision_ == TablePrecision::kF64) {
    const std::uint64_t counts[3] = {store_->size(), store_->shard_count(),
                                     pivots_.size()};
    writer.Header(kShardedLaesaMagic, kShardedLaesaVersion, counts, 3);
    writer.Align();
    writer.Raw(sizes.data(), sizes.size() * sizeof(std::uint64_t));
    writer.Align();
    writer.Raw(pivots_.data(), pivots_.size() * sizeof(std::uint64_t));
    // Through the views, so a mapped index re-snapshots byte-identically.
    for (std::size_t s = 0; s < store_->shard_count(); ++s) {
      writer.Align();
      writer.Raw(shard_table(s),
                 pivots_.size() * store_->shard(s).size() * sizeof(double));
    }
  } else {
    const std::uint64_t counts[4] = {store_->size(), store_->shard_count(),
                                     pivots_.size(),
                                     static_cast<std::uint64_t>(precision_)};
    writer.Header(kShardedLaesaMagic, kShardedLaesaVersionQuant, counts, 4);
    writer.Align();
    writer.Raw(sizes.data(), sizes.size() * sizeof(std::uint64_t));
    writer.Align();
    writer.Raw(pivots_.data(), pivots_.size() * sizeof(std::uint64_t));
    writer.Align();
    writer.Raw(row_meta_data(), pivots_.size() * sizeof(QuantRowMeta));
    const std::size_t width = TablePrecisionBytes(precision_);
    for (std::size_t s = 0; s < store_->shard_count(); ++s) {
      writer.Align();
      writer.Raw(shard_quant(s),
                 pivots_.size() * store_->shard(s).size() * width);
    }
  }
  writer.Finish();
}

void ShardedLaesa::SaveShard(std::size_t s, const std::string& path) const {
  const std::size_t n_s = store_->shard(s).size();
  BinaryWriter writer(path);
  const std::uint64_t counts[6] = {store_->size(), store_->shard_count(),
                                   pivots_.size(),  s,
                                   n_s,             store_->shard_base(s)};
  if (precision_ == TablePrecision::kF64) {
    writer.Header(kShardSliceMagic, kShardSliceVersion, counts, 6);
    writer.Align();
    writer.Raw(pivots_.data(), pivots_.size() * sizeof(std::uint64_t));
    writer.Align();
    writer.Raw(shard_table(s), pivots_.size() * n_s * sizeof(double));
  } else {
    // All six header counts are taken, so v2 leads with an extra
    // {precision, reserved} section (see serve/shard_snapshot.h).
    writer.Header(kShardSliceMagic, kShardSliceVersionQuant, counts, 6);
    const std::uint64_t prec[2] = {static_cast<std::uint64_t>(precision_), 0};
    writer.Align();
    writer.Raw(prec, sizeof(prec));
    writer.Align();
    writer.Raw(pivots_.data(), pivots_.size() * sizeof(std::uint64_t));
    writer.Align();
    writer.Raw(row_meta_data(), pivots_.size() * sizeof(QuantRowMeta));
    writer.Align();
    writer.Raw(shard_quant(s),
               pivots_.size() * n_s * TablePrecisionBytes(precision_));
  }
  writer.Finish();
}

void ShardedLaesa::SaveRouterManifest(const std::string& path) const {
  BinaryWriter writer(path);
  std::vector<std::uint64_t> lens(pivots_.size());
  std::uint64_t arena_bytes = 0;
  for (std::size_t p = 0; p < pivots_.size(); ++p) {
    lens[p] = store_->view(pivots_[p]).size();
    arena_bytes += lens[p];
  }
  const std::uint64_t counts[4] = {store_->size(), store_->shard_count(),
                                   pivots_.size(), arena_bytes};
  writer.Header(kRouterManifestMagic, kRouterManifestVersion, counts, 4);
  std::vector<std::uint64_t> sizes(store_->shard_count());
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    sizes[s] = store_->shard(s).size();
  }
  writer.Align();
  writer.Raw(sizes.data(), sizes.size() * sizeof(std::uint64_t));
  writer.Align();
  writer.Raw(pivots_.data(), pivots_.size() * sizeof(std::uint64_t));
  writer.Align();
  writer.Raw(lens.data(), lens.size() * sizeof(std::uint64_t));
  writer.Align();
  for (std::size_t p = 0; p < pivots_.size(); ++p) {
    const std::string_view v = store_->view(pivots_[p]);
    writer.Raw(v.data(), v.size());
  }
  writer.Finish();
}

ShardedLaesa ShardedLaesa::Load(const std::string& path,
                                const ShardedPrototypeStore& store,
                                StringDistancePtr distance) {
  BinaryReader reader(path);
  std::uint32_t version = 0;
  const auto counts = reader.Header(kShardedLaesaMagic, kShardedLaesaVersion,
                                    kShardedLaesaVersionQuant, &version);
  const std::uint64_t n = counts[0];
  const std::uint64_t shards = counts[1];
  const std::uint64_t np = counts[2];
  if (n != store.size() || shards != store.shard_count()) {
    throw std::runtime_error("ShardedLaesa::Load: store shape mismatch");
  }
  if (np == 0 || np > n) {
    throw std::runtime_error("ShardedLaesa::Load: bad pivot count");
  }
  reader.RequireArray(shards, sizeof(std::uint64_t));
  std::vector<std::uint64_t> sizes(shards);
  reader.Align();
  reader.Raw(sizes.data(), shards * sizeof(std::uint64_t));
  for (std::uint64_t s = 0; s < shards; ++s) {
    if (sizes[s] != store.shard(s).size()) {
      throw std::runtime_error("ShardedLaesa::Load: shard size mismatch");
    }
  }
  ShardedLaesa index(InternalTag{}, store, std::move(distance));
  reader.RequireArray(np, sizeof(std::uint64_t));
  index.pivots_.resize(np);
  reader.Align();
  reader.Raw(index.pivots_.data(), np * sizeof(std::uint64_t));
  index.pivot_rank_.assign(n, -1);
  for (std::size_t p = 0; p < np; ++p) {
    if (index.pivots_[p] >= n) {
      throw std::runtime_error("ShardedLaesa::Load: pivot index out of range");
    }
    if (index.pivot_rank_[index.pivots_[p]] >= 0) {
      throw std::runtime_error("ShardedLaesa::Load: duplicate pivot index");
    }
    index.pivot_rank_[index.pivots_[p]] = static_cast<std::int32_t>(p);
  }
  if (version == kShardedLaesaVersion) {
    index.tables_.resize(shards);
    for (std::uint64_t s = 0; s < shards; ++s) {
      reader.RequireArray(np * sizes[s], sizeof(double));
      index.tables_[s].resize(np * sizes[s]);
      reader.Align();
      reader.Raw(index.tables_[s].data(), np * sizes[s] * sizeof(double));
    }
  } else {
    index.precision_ = CheckedShardPrecision(counts[3], "ShardedLaesa::Load");
    const std::size_t width = TablePrecisionBytes(index.precision_);
    reader.RequireArray(np, sizeof(QuantRowMeta));
    index.row_meta_.resize(np);
    reader.Align();
    reader.Raw(index.row_meta_.data(), np * sizeof(QuantRowMeta));
    index.quant_tables_.resize(shards);
    for (std::uint64_t s = 0; s < shards; ++s) {
      reader.RequireArray(np * sizes[s], width);
      index.quant_tables_[s].resize(np * sizes[s] * width);
      reader.Align();
      reader.Raw(index.quant_tables_[s].data(), np * sizes[s] * width);
    }
  }
  return index;
}

ShardedLaesa ShardedLaesa::Map(const std::string& path,
                               const ShardedPrototypeStore& store,
                               StringDistancePtr distance) {
  MappedReader reader(MappedFile::Open(path));
  std::uint32_t version = 0;
  const auto counts = reader.Header(kShardedLaesaMagic, kShardedLaesaVersion,
                                    kShardedLaesaVersionQuant, &version);
  const std::uint64_t n = counts[0];
  const std::uint64_t shards = counts[1];
  const std::uint64_t np = counts[2];
  if (n != store.size() || shards != store.shard_count()) {
    throw std::runtime_error("ShardedLaesa::Map: store shape mismatch");
  }
  if (np == 0 || np > n) {
    throw std::runtime_error("ShardedLaesa::Map: bad pivot count");
  }
  const std::uint64_t* sizes = reader.Array<std::uint64_t>(shards);
  for (std::uint64_t s = 0; s < shards; ++s) {
    if (sizes[s] != store.shard(s).size()) {
      throw std::runtime_error("ShardedLaesa::Map: shard size mismatch");
    }
  }
  ShardedLaesa index(InternalTag{}, store, std::move(distance));
  // Pivot indices are tiny (np entries); copying them keeps the `pivots()`
  // API. The per-shard tables — the O(pivots x N) bulk — stay views.
  const std::uint64_t* pivots = reader.Array<std::uint64_t>(np);
  index.pivots_.assign(pivots, pivots + np);
  index.pivot_rank_.assign(n, -1);
  for (std::size_t p = 0; p < np; ++p) {
    if (index.pivots_[p] >= n) {
      throw std::runtime_error("ShardedLaesa::Map: pivot index out of range");
    }
    if (index.pivot_rank_[index.pivots_[p]] >= 0) {
      throw std::runtime_error("ShardedLaesa::Map: duplicate pivot index");
    }
    index.pivot_rank_[index.pivots_[p]] = static_cast<std::int32_t>(p);
  }
  if (version == kShardedLaesaVersion) {
    index.mapped_tables_.resize(shards);
    for (std::uint64_t s = 0; s < shards; ++s) {
      // sizes[s] was validated against the live store, so np * sizes[s]
      // cannot wrap before Array()'s division-form extent check sees it.
      index.mapped_tables_[s] = reader.Array<double>(np * sizes[s]);
    }
  } else {
    index.precision_ = CheckedShardPrecision(counts[3], "ShardedLaesa::Map");
    const std::size_t width = TablePrecisionBytes(index.precision_);
    index.mapped_meta_ = reader.Array<QuantRowMeta>(np);
    index.mapped_quants_.resize(shards);
    for (std::uint64_t s = 0; s < shards; ++s) {
      index.mapped_quants_[s] = reader.Section(np * sizes[s], width);
    }
  }
  index.mapping_ = reader.file();
  return index;
}

}  // namespace cned
