#include "search/laesa.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/binary_io.h"
#include "search/pivot_selection.h"
#include "search/pivot_sweep.h"
#include "search/sweep_kernel.h"

namespace cned {

namespace {

// The selecting constructor's pivots: greedy max-min over a validated
// store.
std::vector<std::size_t> SelectLaesaPivots(const PrototypeStore& store,
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

}  // namespace

Laesa::Laesa(PrototypeStoreRef prototypes, StringDistancePtr distance,
             std::size_t num_pivots, TablePrecision table_precision)
    : Laesa(prototypes, distance,
            SelectLaesaPivots(prototypes.get(), *distance, num_pivots),
            table_precision) {
  preprocessing_computations_ +=
      static_cast<std::uint64_t>(pivots().size()) * store().size();
}

Laesa::Laesa(PrototypeStoreRef prototypes, StringDistancePtr distance,
             std::vector<std::size_t> pivot_indices,
             TablePrecision table_precision)
    : prototypes_(prototypes), distance_(std::move(distance)) {
  if (store().empty()) {
    throw std::invalid_argument("Laesa: empty prototype set");
  }
  if (pivot_indices.empty()) {
    throw std::invalid_argument("Laesa: need at least one pivot");
  }
  const std::size_t n = store().size();
  for (std::size_t p : pivot_indices) {
    if (p >= n) throw std::invalid_argument("Laesa: pivot index out of range");
  }
  pivot_table_ = PivotTables(std::move(pivot_indices), n,
                             /*distinct=*/false, "Laesa");
  pivot_table_.Build({SweepSegment{0, &store(), {}}}, *distance_,
                     table_precision);
  preprocessing_computations_ +=
      static_cast<std::uint64_t>(pivots().size()) * n;
}

// The flat index is the one-segment table of the shared sweep core
// (pivot_sweep.h).
PivotSweep Laesa::core() const {
  return pivot_table_.Sweep({SweepSegment{0, &store(), {}}}, *distance_);
}

void Laesa::ComputePivotRow(std::string_view query, double* row,
                            QueryStats* stats) const {
  core().ComputePivotRow(query, row, stats);
}

std::vector<NeighborResult> Laesa::KNearestWithPivotRow(
    std::string_view query, std::size_t k, const double* row,
    QueryStats* stats) const {
  return core().WithRow(query, k, row, stats);
}

std::vector<NeighborResult> Laesa::KNearest(std::string_view query,
                                            std::size_t k,
                                            QueryStats* stats) const {
  return core().Lazy(query, k, stats);
}

std::vector<NeighborResult> Laesa::KNearestMasked(
    std::string_view query, std::size_t k, const std::uint64_t* tombstones,
    QueryStats* stats) const {
  return core().Lazy(query, k, stats, nullptr, tombstones);
}

std::vector<NeighborResult> Laesa::RangeSearch(std::string_view query,
                                               double radius,
                                               QueryStats* stats) const {
  const PrototypeStore& protos = store();
  const std::size_t n = protos.size();
  const SweepKernels& kern = ActiveSweepKernels();
  SweepScratch& scratch = TlsSweepScratch();
  scratch.lower.resize(n);
  double* lower = scratch.lower.data();
  // Length-difference bounds seed the candidate filter for free, as in the
  // nearest-neighbour sweep.
  distance_->LengthLowerBounds(query.size(), protos.lengths_data(), n, lower);

  std::vector<NeighborResult> hits;
  std::uint64_t computations = 0, abandons = 0;

  // Phase 1: compute query-pivot distances, tighten every lower bound with
  // the pivot's contiguous table row (the dense streamed-max kernel). Pivot
  // distances stay exact: their full value feeds every candidate's lower
  // bound, which is worth far more than an abandoned evaluation saves.
  const std::vector<std::size_t>& pivots = this->pivots();
  const std::int32_t* pivot_rank = pivot_table_.rank();
  const QuantTableView view = pivot_table_.view(0);
  for (std::size_t p = 0; p < pivots.size(); ++p) {
    const std::size_t s = pivots[p];
    const double d = distance_->Distance(query, protos[s]);
    ++computations;
    // A pivot listed more than once (ablation constructor, any Load or
    // Map) is one prototype: report it from its ranked entry only.
    if (d <= radius && pivot_rank[s] == static_cast<std::int32_t>(p)) {
      hits.push_back({s, d});
    }
    QuantUpdateLowerDense(kern, view, p, n, d, lower);
  }
  // Phase 2: verify every surviving non-pivot (pivots were computed in
  // phase 1). Hits are inclusive (d <= radius), so the kernel bound is the
  // next representable value above the radius — an abandoned evaluation
  // then certifies d > radius.
  const double cap =
      std::nextafter(radius, std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < n; ++i) {
    if (pivot_rank[i] >= 0 || lower[i] > radius) continue;
    const double d = distance_->DistanceBounded(query, protos[i], cap);
    ++computations;
    if (d >= cap) {
      ++abandons;
    } else if (d <= radius) {
      hits.push_back({i, d});
    }
  }
  std::sort(hits.begin(), hits.end(), NeighborLess);
  if (stats != nullptr) {
    stats->distance_computations += computations;
    stats->bounded_abandons += abandons;
    stats->pivot_computations += pivots.size();
  }
  return hits;
}

namespace {
constexpr char kLaesaMagic[8] = {'C', 'N', 'E', 'D', 'L', 'S', 'A', '1'};
constexpr std::uint32_t kLaesaVersion = 1;
// Version 2 adds quantized tables: counts gain the precision, and a 32-byte
// per-row QuantRowMeta section sits between the pivots and the (narrow)
// code table. f64 indexes keep writing version 1, byte-identical to every
// snapshot produced before quantization existed.
constexpr std::uint32_t kLaesaVersionQuant = 2;
}  // namespace

void Laesa::Save(const std::string& path) const {
  BinaryWriter writer(path);
  const TablePrecision precision = table_precision();
  // f64 is precision code 0, so a version-1 header's third count stays zero.
  const std::uint64_t counts[3] = {store().size(), pivots().size(),
                                   static_cast<std::uint64_t>(precision)};
  writer.Header(kLaesaMagic,
                precision == TablePrecision::kF64 ? kLaesaVersion
                                                  : kLaesaVersionQuant,
                counts, 3);
  pivot_table_.Write(writer, 0, 1);
  writer.Finish();
}

Laesa Laesa::Open(const std::string& path, PrototypeStoreRef prototypes,
                  StringDistancePtr distance, bool copy, const char* who) {
  // Load reads every byte anyway, so it always verifies the checksum; Map
  // leaves that to CNED_SNAPSHOT_VERIFY (binary_io.h).
  MappedReader reader(MappedFile::Open(path),
                      copy || SnapshotVerifyEnabled());
  std::uint32_t version = 0;
  const auto counts =
      reader.Header(kLaesaMagic, kLaesaVersion, kLaesaVersionQuant, &version);
  const std::uint64_t n = counts[0];
  if (n != prototypes->size()) {
    throw std::runtime_error(std::string(who) + ": prototype count mismatch");
  }
  const TablePrecision precision =
      version == kLaesaVersion ? TablePrecision::kF64
                               : TablePrecisionFromCode(counts[2], who);
  Laesa index(InternalTag{}, prototypes, std::move(distance));
  index.pivot_table_ = PivotTables::Read(reader, counts[1], n, {n},
                                         precision, /*distinct=*/false, copy,
                                         who);
  return index;
}

Laesa Laesa::Load(const std::string& path, PrototypeStoreRef prototypes,
                  StringDistancePtr distance) {
  return Open(path, prototypes, std::move(distance), /*copy=*/true,
              "Laesa::Load");
}

Laesa Laesa::Map(const std::string& path, PrototypeStoreRef prototypes,
                 StringDistancePtr distance) {
  return Open(path, prototypes, std::move(distance), /*copy=*/false,
              "Laesa::Map");
}

}  // namespace cned
