#include "search/pivot_sweep.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "common/parallel.h"

namespace cned {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Candidate work below which the per-segment passes run serially on the
// calling thread. ParallelFor spawns and joins real threads (no pool),
// so a pass must stream on the order of a million candidates — tens of
// megabytes, hundreds of microseconds — before that dispatch pays for
// itself; under the batch engine the nested call runs inline anyway.
// Results are identical either way — only the execution schedule changes.
constexpr std::size_t kParallelPassWork = 1 << 20;

/// Thread-local per-sweep bookkeeping: the lazy sweep's pivot bounds (np
/// entries) and visited rows, the ranks and distances of the rows a sweep
/// applies, and one survivor-stream histogram per query of the group. The
/// dense slabs come from the shared `TlsSweepScratch`. Owned per thread,
/// so batched queries running under ParallelFor never share state.
struct SegmentScratch {
  std::vector<double> bounds;
  std::vector<PivotRow> rows;
  std::vector<std::size_t> ranks;
  std::vector<double> d;
  std::vector<std::uint32_t> hist[kMaxRowQueries];
};

SegmentScratch& TlsSegmentScratch() {
  thread_local SegmentScratch scratch;
  return scratch;
}

// Runs body(g) for every segment: fanned out through ParallelFor when there
// is more than one segment and `work` candidates amortise the dispatch,
// serially otherwise.
template <typename Body>
void ForEachSegment(std::size_t segments, std::size_t work, Body&& body) {
  if (segments > 1 && work >= kParallelPassWork) {
    ParallelFor(segments, body);
  } else {
    for (std::size_t g = 0; g < segments; ++g) body(g);
  }
}

// One in-process visit: the prepared query's evaluation against the shared
// visit rule, charged to the candidate's home segment as well when
// `segment_stats` is non-null.
struct LocalVisit {
  const PivotSweep& core;
  PreparedDistance& query;
  SweepIncumbents& inc;
  QueryStats* segment_stats;

  double operator()(std::size_t id, bool is_pivot) const {
    const std::size_t g = core.SegmentOf(id);
    const SweepSegment& seg = core.segments()[g];
    const double cap = inc.Cap(is_pivot);
    const double d = query.Bounded(seg.store->view(id - seg.base), cap);
    const bool abandoned = inc.Absorb(id, d, cap, is_pivot);
    if (segment_stats != nullptr) {
      QueryStats& hs = segment_stats[g];
      hs.distance_computations += 1;
      hs.bounded_abandons += abandoned ? 1 : 0;
      hs.pivot_computations += is_pivot ? 1 : 0;
    }
    return d;
  }
};

}  // namespace

void ApplyPivotRows(const SweepSegment& seg, const std::size_t* ranks,
                    std::size_t rows, const double* d, std::size_t queries,
                    double* const* lower) {
  ActiveSweepKernels().update_lower_rows(seg.table, ranks, rows, d, queries,
                                         lower, seg.store->size());
}

std::size_t NextPivotColumn(const double* bounds, std::size_t np,
                            double kth) {
  // The compaction kernel's rule: a bound at or above `kth` is dead, and
  // the first minimum wins.
  std::size_t next = kSweepNone;
  double key = kInf;
  for (std::size_t j = 0; j < np; ++j) {
    const double b = bounds[j];
    if (b >= kth) continue;
    if (b < key) {
      key = b;
      next = j;
    }
  }
  return next;
}

PivotSweep::PivotSweep(const std::vector<SweepSegment>& segments,
                       const PivotTables& table, const StringDistance& distance)
    : segments_(segments), table_(table), distance_(distance) {
  for (const SweepSegment& seg : segments_) size_ += seg.store->size();
}

std::size_t PivotSweep::SegmentOf(std::size_t id) const {
  // One segment (the flat index): no search, so the per-visit lookup costs
  // what a flat store's view does.
  if (segments_.size() == 1) return 0;
  // Bases are sorted; the owning segment is the last base <= id. Empty
  // segments share a base with their successor, and upper_bound lands past
  // all of them — on the (unique) segment that actually contains id.
  const auto it = std::upper_bound(
      segments_.begin(), segments_.end(), id,
      [](std::size_t v, const SweepSegment& seg) { return v < seg.base; });
  return static_cast<std::size_t>(it - segments_.begin()) - 1;
}

// Three steps, both sweeps alike, on the shared sweep kernels
// (sweep_kernel.h):
//   1. bounds: the length bounds in the query's dense slab, deletes lifted
//      to +inf there, then the pivots lifted to +inf, the lazy sweep
//      taking their bounds out in id order first;
//   2. rows: the row sweep takes every pivot row and seeds the incumbents
//      from it. The lazy sweep runs the pivot phase (`VisitPivots`) over
//      the pivots' bounds and the pivot block, as only they decide the
//      next pivot;
//   3. static phase: the rows taken are applied dense to every segment,
//      one pass over the segment's table for the whole group, and each
//      query's survivor stream visits its non-pivots below its k-th
//      incumbent in ascending (bound, id) order against the improving
//      incumbent.
// The queries of a group share only step 3's table pass, which leaves
// each slab the bits it would leave alone (`update_lower_rows`).
// For the lazy sweep, step 3 counts exactly the non-pivots that a
// compaction after every visit would still hold, with the same bounds:
// bounds only rise and the incumbent only falls, so a non-pivot
// eliminated at some visit is at or above the final incumbent for good,
// and one never eliminated saw every row. Its visits are therefore the
// ones that sweep would pick, tie for tie.
void PivotSweep::Sweep(const PivotRowQuery* group, std::size_t count,
                       std::size_t k, std::vector<NeighborResult>* out,
                       QueryStats* segment_stats,
                       const std::uint64_t* tombstones) const {
  if (count > kMaxRowQueries ||
      (count > 1 && std::any_of(group, group + count,
                                [](const PivotRowQuery& q) {
                                  return q.row == nullptr;
                                }))) {
    throw std::invalid_argument(
        "PivotSweep::Sweep: a group holds at most kMaxRowQueries row "
        "queries or one lazy query");
  }
  const PivotIds& pivots = table_.pivots();
  const std::size_t n = size_;
  const std::size_t np = pivots.size();
  const std::size_t segs = segments_.size();
  k = std::min(k, n);
  if (k == 0 || count == 0) {
    for (std::size_t b = 0; b < count; ++b) out[b].clear();
    return;
  }

  SweepScratch& slabs = TlsSweepScratch();
  slabs.idx.resize(n);
  SegmentScratch& scratch = TlsSegmentScratch();
  std::uint32_t* idx = slabs.idx.data();
  double* lower[kMaxRowQueries];
  std::vector<SweepIncumbents> incs;
  std::vector<SurvivorStream> streams;
  incs.reserve(count);
  streams.reserve(count);
  std::vector<PivotRow>& rows = scratch.rows;
  rows.clear();
  // Each query's evaluator: the lazy query's from its pivot phase on, a
  // row query's for its visits.
  std::unique_ptr<PreparedDistance> prepared[kMaxRowQueries];
  const std::uint32_t* sorted = pivots.sorted();
  for (std::size_t b = 0; b < count; ++b) {
    const PivotRowQuery& q = group[b];
    slabs.lower[b].resize(n);
    double* slab = lower[b] = slabs.lower[b].data();
    // Free zeroth pivot: length-only lower bounds, one flat pass over each
    // segment's packed length array before any distance is computed.
    ForEachSegment(segs, n, [&](std::size_t g) {
      const SweepSegment& seg = segments_[g];
      distance_.LengthLowerBounds(q.query.size(), seg.store->lengths_data(),
                                  seg.store->size(), slab + seg.base);
    });
    SweepIncumbents& inc = incs.emplace_back(k);
    if (q.row != nullptr) {
      for (std::size_t j = 0; j < np; ++j) slab[sorted[j]] = kInf;
      // Every pivot distance is already paid for, so ties admit the lower
      // index.
      inc.SeedRow(pivots.ids(), q.row, [](std::size_t) { return false; });
    } else {
      // A +inf bound drops a deleted slot before it is visited: from the
      // pivot phase at its first choice, from the dense slab at the
      // stream's count.
      if (tombstones != nullptr) ApplyTombstoneMask(tombstones, n, slab);
      std::vector<double>& bounds = scratch.bounds;
      bounds.resize(np);
      for (std::size_t j = 0; j < np; ++j) {
        double& slot = slab[sorted[j]];
        bounds[j] = slot;
        slot = kInf;
      }
      prepared[b] = distance_.Prepare(q.query);
      const LocalVisit visit{*this, *prepared[b], inc, segment_stats};
      VisitPivots(
          pivots, table_.block().view(), tombstones != nullptr, inc,
          bounds.data(),
          [&](std::size_t id, std::size_t) { return visit(id, true); },
          &rows);
    }
    streams.emplace_back(inc.Kth(), n, segs, scratch.hist[b]);
  }

  // The rows taken, d[r * count + b]: every row for the row sweep, the
  // visited ones for the lazy sweep.
  std::vector<std::size_t>& ranks = scratch.ranks;
  std::vector<double>& d = scratch.d;
  ranks.clear();
  d.clear();
  if (group[0].row != nullptr) {
    for (std::size_t p = 0; p < np; ++p) {
      ranks.push_back(p);
      for (std::size_t b = 0; b < count; ++b) d.push_back(group[b].row[p]);
    }
  } else {
    for (const PivotRow& r : rows) {
      ranks.push_back(r.rank);
      d.push_back(r.d);
    }
  }
  ForEachSegment(segs, count * ranks.size() * n, [&](std::size_t g) {
    const SweepSegment& seg = segments_[g];
    double* seg_lower[kMaxRowQueries];
    for (std::size_t b = 0; b < count; ++b) seg_lower[b] = lower[b] + seg.base;
    ApplyPivotRows(seg, ranks.data(), ranks.size(), d.data(), count,
                   seg_lower);
    for (std::size_t b = 0; b < count; ++b) {
      streams[b].Count(g, seg_lower[b], seg.store->size());
    }
  });
  for (std::size_t b = 0; b < count; ++b) {
    SurvivorStream& stream = streams[b];
    SweepIncumbents& inc = incs[b];
    stream.Place();
    ForEachSegment(segs, n, [&](std::size_t g) {
      const SweepSegment& seg = segments_[g];
      stream.Scatter(g, lower[b] + seg.base, seg.store->size(), seg.base,
                     idx);
    });
    if (prepared[b] == nullptr) prepared[b] = distance_.Prepare(group[b].query);
    const LocalVisit visit{
        *this, *prepared[b], inc,
        segment_stats == nullptr ? nullptr : segment_stats + b * segs};
    stream.VisitInBoundOrder(
        idx, lower[b], [&]() { return inc.Kth(); },
        [&](std::size_t c) { visit(c, /*is_pivot=*/false); });
    if (group[b].stats != nullptr) *group[b].stats += inc.stats();
    out[b] = inc.Take();
  }
}

void PivotSweep::ComputePivotRow(std::string_view query, double* row,
                                 QueryStats* stats) const {
  const PivotIds& pivots = table_.pivots();
  const std::unique_ptr<PreparedDistance> prepared = distance_.Prepare(query);
  for (std::size_t p = 0; p < pivots.size(); ++p) {
    row[p] = prepared->Bounded(View(pivots.ids()[p]), kInf);
  }
  if (stats != nullptr) {
    stats->distance_computations += pivots.size();
    stats->pivot_computations += pivots.size();
  }
}

std::string PivotIds::Invalid(const std::vector<std::size_t>& ids,
                              std::size_t n) {
  // Checked first, so a corrupt header count fails as a format error
  // whatever the ids are.
  if (n > kMaxSweepIds) {
    return std::to_string(n) + " ids exceed the sweep's 2^31 id limit";
  }
  std::vector<std::size_t> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  if (!sorted.empty() && sorted.back() >= n) {
    return "pivot index out of range";
  }
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return "duplicate pivot index";
  }
  return {};
}

PivotIds::PivotIds(std::vector<std::size_t> ids, std::size_t n,
                   const std::string& who)
    : ids_(std::move(ids)) {
  const std::string why = Invalid(ids_, n);
  if (!why.empty()) throw std::runtime_error(who + ": " + why);
  // Ids are below n <= 2^31, and so are the ordinals.
  ordinals_.resize(ids_.size());
  std::iota(ordinals_.begin(), ordinals_.end(), std::int32_t{0});
  std::sort(ordinals_.begin(), ordinals_.end(),
            [&](std::int32_t a, std::int32_t b) { return ids_[a] < ids_[b]; });
  sorted_.resize(ids_.size());
  for (std::size_t j = 0; j < ids_.size(); ++j) {
    sorted_[j] = static_cast<std::uint32_t>(ids_[ordinals_[j]]);
  }
}

PivotTables::PivotTables(std::vector<std::size_t> pivots, std::size_t n,
                         const std::string& who)
    : pivots_(std::move(pivots), n, who) {}

void PivotTables::Build(const std::vector<SweepSegment>& segs,
                        const StringDistance& distance,
                        TablePrecision precision) {
  const PivotSweep sweep(segs, *this, distance);
  const std::size_t p_count = pivots_.size();
  std::vector<std::size_t> sizes(segs.size());
  std::size_t n = 0;
  Buffers out;
  out.f64.resize(segs.size());
  for (std::size_t g = 0; g < segs.size(); ++g) {
    sizes[g] = segs[g].store->size();
    n += sizes[g];
    out.f64[g].resize(p_count * sizes[g]);
  }
  // One task per chunk of kBuildChunk entries of one pivot row: the atomic
  // work queue in ParallelFor still balances the load when string lengths
  // (and thus per-distance cost) vary wildly, at one queue step and one
  // pivot lookup per chunk rather than per entry, and writes are disjoint.
  // Every distance kernel is thread-safe (thread-local workspaces).
  constexpr std::size_t kBuildChunk = 64;
  const std::size_t chunks = (n + kBuildChunk - 1) / kBuildChunk;
  ParallelFor(p_count * chunks, [&](std::size_t t) {
    const std::size_t p = t / chunks;
    const std::size_t begin = t % chunks * kBuildChunk;
    const std::size_t end = std::min(n, begin + kBuildChunk);
    const std::unique_ptr<PreparedDistance> pivot =
        distance.Prepare(sweep.View(pivots_.ids()[p]));
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t g = sweep.SegmentOf(i);
      const SweepSegment& seg = segs[g];
      out.f64[g][p * sizes[g] + (i - seg.base)] =
          pivot->Bounded(seg.store->view(i - seg.base), kInf);
    }
  });
  if (precision != TablePrecision::kF64) {
    // Quantize each GLOBAL pivot row with one shared meta: scan every
    // segment's slice of the row first (segment order == global index
    // order), then encode the slices against that meta (round-down codes +
    // per-row gap, table_quant.h). The exact table is dropped — the narrow
    // codes ARE the index from here on, so build, save, load and map all
    // sweep the same bytes.
    const std::size_t width = TablePrecisionBytes(precision);
    out.codes.resize(segs.size());
    for (std::size_t g = 0; g < segs.size(); ++g) {
      out.codes[g].resize(p_count * sizes[g] * width);
    }
    out.meta.resize(p_count);
    for (std::size_t p = 0; p < p_count; ++p) {
      QuantRowEncoder enc;
      for (std::size_t g = 0; g < segs.size(); ++g) {
        enc.Scan(out.f64[g].data() + p * sizes[g], sizes[g]);
      }
      enc.Prepare(precision);
      for (std::size_t g = 0; g < segs.size(); ++g) {
        enc.Encode(out.f64[g].data() + p * sizes[g], sizes[g],
                   out.codes[g].data() + p * sizes[g] * width);
      }
      out.meta[p] = enc.Finish();
    }
    out.f64.clear();
  }
  Own(precision, std::move(sizes), std::move(out));
  block_ = PivotBlock(pivots_, sizes_, views_);
}

void PivotTables::Own(TablePrecision precision, std::vector<std::size_t> sizes,
                      Buffers buffers) {
  precision_ = precision;
  sizes_ = std::move(sizes);
  owned_ = std::make_shared<const Buffers>(std::move(buffers));
  mapping_.reset();
  views_.assign(sizes_.size(), QuantTableView{precision_});
  for (std::size_t g = 0; g < sizes_.size(); ++g) {
    if (precision_ == TablePrecision::kF64) {
      views_[g].f64 = owned_->f64[g].data();
    } else {
      views_[g].q = owned_->codes[g].data();
      views_[g].rows = owned_->meta.data();
    }
  }
}

PivotTables PivotTables::Read(MappedReader& reader, std::uint64_t np,
                              std::size_t n, std::vector<std::size_t> sizes,
                              TablePrecision precision, bool copy,
                              const std::string& who) {
  if (np == 0 || np > n) throw std::runtime_error(who + ": bad pivot count");
  static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
                "64-bit pivot indices expected");
  const std::uint64_t* ids = reader.Array<std::uint64_t>(np);
  PivotTables out(std::vector<std::size_t>(ids, ids + np), n, who);
  out.precision_ = precision;
  const QuantRowMeta* meta = precision == TablePrecision::kF64
                                 ? nullptr
                                 : reader.Array<QuantRowMeta>(np);
  const std::size_t width = TablePrecisionBytes(precision);
  out.views_.assign(sizes.size(), QuantTableView{precision});
  for (std::size_t g = 0; g < sizes.size(); ++g) {
    // Every caller checks its segment sizes against a live store, so
    // np * sizes[g] cannot wrap before Section()'s division-form extent
    // check sees it.
    const void* section = reader.Section(np * sizes[g], width);
    if (meta == nullptr) {
      out.views_[g].f64 = static_cast<const double*>(section);
    } else {
      out.views_[g].q = section;
      out.views_[g].rows = meta;
    }
  }
  const bool covers = std::accumulate(sizes.begin(), sizes.end(),
                                      std::size_t{0}) == n;
  if (copy) {
    Buffers buffers;
    if (meta != nullptr) buffers.meta.assign(meta, meta + np);
    for (std::size_t g = 0; g < sizes.size(); ++g) {
      const QuantTableView& v = out.views_[g];
      const std::size_t count = np * sizes[g];
      if (meta == nullptr) {
        buffers.f64.emplace_back(v.f64, v.f64 + count);
      } else {
        const auto* bytes = static_cast<const unsigned char*>(v.q);
        buffers.codes.emplace_back(bytes, bytes + count * width);
      }
    }
    out.Own(precision, std::move(sizes), std::move(buffers));
  } else {
    out.sizes_ = std::move(sizes);
    out.mapping_ = reader.file();
  }
  if (covers) out.block_ = PivotBlock(out.pivots_, out.sizes_, out.views_);
  return out;
}

void PivotTables::Write(BinaryWriter& writer, std::size_t first,
                        std::size_t last) const {
  const std::size_t np = pivots_.size();
  writer.Align();
  writer.Raw(pivots_.ids().data(), np * sizeof(std::uint64_t));
  if (precision_ != TablePrecision::kF64) {
    writer.Align();
    writer.Raw(views_[first].rows, np * sizeof(QuantRowMeta));
  }
  // Through the views, so a mapped table re-snapshots byte-identically.
  const std::size_t width = TablePrecisionBytes(precision_);
  for (std::size_t g = first; g < last; ++g) {
    const QuantTableView& v = views_[g];
    writer.Align();
    writer.Raw(precision_ == TablePrecision::kF64
                   ? static_cast<const void*>(v.f64)
                   : v.q,
               np * sizes_[g] * width);
  }
}

PivotBlock::PivotBlock(const PivotIds& pivots,
                       const std::vector<std::size_t>& sizes,
                       const std::vector<QuantTableView>& views) {
  const std::size_t np = pivots.size();
  const QuantTableView& first = views[0];
  const std::size_t width = TablePrecisionBytes(first.precision);
  auto storage = NewStorage(np, width);
  unsigned char* out = storage->bytes.data();
  // Column j is pivot id sorted()[j]. The columns ascend by id, so one
  // walk over the segments finds each one's segment and local slot.
  std::size_t g = 0;
  std::size_t base = 0;
  for (std::size_t j = 0; j < np; ++j) {
    const std::size_t id = pivots.sorted()[j];
    while (id - base >= sizes[g]) base += sizes[g++];
    const QuantTableView& v = views[g];
    const auto* src = v.f64 != nullptr
                          ? reinterpret_cast<const unsigned char*>(v.f64)
                          : static_cast<const unsigned char*>(v.q);
    for (std::size_t p = 0; p < np; ++p) {
      std::memcpy(out + (p * np + j) * width,
                  src + (p * sizes[g] + id - base) * width, width);
    }
  }
  Bind(first.precision, std::move(storage), first.rows);
}

PivotBlock PivotBlock::Read(MappedReader& reader, std::size_t np,
                            TablePrecision precision) {
  const QuantRowMeta* meta = precision == TablePrecision::kF64
                                 ? nullptr
                                 : reader.Array<QuantRowMeta>(np);
  // np <= n <= 2^31, so np * np cannot wrap before Section()'s
  // division-form extent check sees it.
  const std::size_t width = TablePrecisionBytes(precision);
  const void* codes = reader.Section(np * np, width);
  auto storage = NewStorage(np, width);
  std::memcpy(storage->bytes.data(), codes, np * np * width);
  if (meta != nullptr) storage->meta.assign(meta, meta + np);
  PivotBlock out;
  out.Bind(precision, storage, storage->meta.data());
  return out;
}

std::shared_ptr<PivotBlock::Storage> PivotBlock::NewStorage(
    std::size_t np, std::size_t width) {
  auto storage = std::make_shared<Storage>();
  storage->bytes.resize(np * np * width);
  return storage;
}

void PivotBlock::Bind(TablePrecision precision,
                      std::shared_ptr<const Storage> storage,
                      const QuantRowMeta* rows) {
  view_ = QuantTableView{precision};
  if (precision == TablePrecision::kF64) {
    view_.f64 = reinterpret_cast<const double*>(storage->bytes.data());
  } else {
    view_.q = storage->bytes.data();
    view_.rows = rows;
  }
  storage_ = std::move(storage);
}

void PivotBlock::Write(BinaryWriter& writer, std::size_t np) const {
  if (view_.precision != TablePrecision::kF64) {
    writer.Align();
    writer.Raw(view_.rows, np * sizeof(QuantRowMeta));
  }
  writer.Align();
  writer.Raw(storage_->bytes.data(), storage_->bytes.size());
}

}  // namespace cned
