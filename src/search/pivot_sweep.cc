#include "search/pivot_sweep.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "common/parallel.h"

namespace cned {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Candidate work below which the per-visit segment passes run serially on
// the calling thread. ParallelFor spawns and joins real threads (no pool),
// so a pass must stream on the order of a million candidates — tens of
// megabytes, hundreds of microseconds — before that dispatch pays for
// itself; under the batch engine the nested call runs inline anyway.
// Results are identical either way — only the execution schedule changes.
constexpr std::size_t kParallelPassWork = 1 << 20;

/// Thread-local per-segment bookkeeping: segment live counts, the
/// per-segment pass results and the survivor stream's histogram. The
/// candidate slabs themselves come from the shared `TlsSweepScratch`.
/// Owned per thread, so batched queries running under ParallelFor never
/// share state.
struct SegmentScratch {
  std::vector<std::size_t> live;
  std::vector<SweepCompactResult> pass;
  std::vector<std::uint32_t> hist;
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

// One in-process visit: the local evaluation against the shared visit rule,
// charged to the candidate's home segment as well when `segment_stats` is
// non-null.
struct LocalVisit {
  const PivotSweep& core;
  std::string_view query;
  SweepIncumbents& inc;
  QueryStats* segment_stats;

  double operator()(std::size_t id, bool is_pivot) const {
    const std::size_t g = core.SegmentOf(id);
    const SweepSegment& seg = core.segments()[g];
    const double cap = inc.Cap(is_pivot);
    const double d = core.distance().DistanceBounded(
        query, seg.store->view(id - seg.base), cap);
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

// The survivor stream's last steps over every segment's counted dense
// slab: place, scatter, then visit each survivor below bound() as a
// non-pivot.
template <typename Bound>
void VisitStream(const std::vector<SweepSegment>& segments, std::size_t n,
                 SurvivorStream& stream, std::uint32_t* idx,
                 const double* lower, Bound&& bound, const LocalVisit& visit) {
  stream.Place();
  ForEachSegment(segments.size(), n, [&](std::size_t g) {
    const SweepSegment& seg = segments[g];
    stream.Scatter(g, lower + seg.base, seg.store->size(), seg.base, idx);
  });
  stream.VisitInBoundOrder(idx, lower, bound, [&](std::size_t c) {
    visit(c, /*is_pivot=*/false);
  });
}

std::vector<NeighborResult> Finish(SweepIncumbents& inc, QueryStats* stats) {
  if (stats != nullptr) *stats += inc.stats();
  return inc.Take();
}

}  // namespace

void SeedSegmentBounds(const SweepSegment& seg, const StringDistance& distance,
                       std::size_t query_len, const double* row,
                       std::size_t pivot_count,
                       const std::uint64_t* tombstones, double* lower) {
  const SweepKernels& kern = ActiveSweepKernels();
  const std::size_t n = seg.store->size();
  distance.LengthLowerBounds(query_len, seg.store->lengths_data(), n, lower);
  // No elimination yet: each row pass is the dense streamed-max kernel.
  for (std::size_t p = 0; p < pivot_count; ++p) {
    QuantUpdateLowerDense(kern, seg.table, p, n, row[p], lower);
  }
  // Tombstoned slots go to +inf before the survivors are taken, so the
  // row path can never admit a deleted prototype either.
  if (tombstones != nullptr) ApplyTombstoneMask(tombstones, n, lower);
}

SweepCompactResult VisitSegmentPass(const SweepSegment& seg,
                                    const std::int32_t* pivot_rank,
                                    std::int32_t rank, double d,
                                    std::uint32_t skip, double bound,
                                    std::uint32_t* idx, double* lower,
                                    std::size_t live) {
  const SweepKernels& kern = ActiveSweepKernels();
  if (rank >= 0) {
    QuantUpdateLowerPacked(kern, seg.table, static_cast<std::size_t>(rank),
                           seg.store->size(), d, idx,
                           static_cast<std::uint32_t>(seg.base), lower, live);
  }
  return kern.eliminate_and_compact_flagged(idx, lower, pivot_rank, live, skip,
                                            bound);
}

PivotSweep::PivotSweep(const std::vector<SweepSegment>& segments,
                       const std::vector<std::size_t>& pivots,
                       const std::int32_t* pivot_rank,
                       const StringDistance& distance)
    : segments_(segments),
      pivots_(pivots),
      pivot_rank_(pivot_rank),
      distance_(distance) {
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

// Two phases, both on the shared sweep kernels (sweep_kernel.h):
//   - approximating: while pivots survive, visit the minimal-bound pivot,
//     then one visit pass per segment tightens with its table row and
//     eliminates, and the merged per-segment minima pick the next pivot;
//   - static: once the last live pivot is gone the bounds are final, each
//     segment's packed survivors are unpacked back into the dense slab and
//     counted, and the survivor stream visits them in ascending
//     (bound, id) order — the sequence the per-visit compaction would
//     pick, tie for tie.
std::vector<NeighborResult> PivotSweep::Lazy(
    std::string_view query, std::size_t k, QueryStats* stats,
    QueryStats* segment_stats, const std::uint64_t* tombstones) const {
  const std::size_t n = size_;
  const std::size_t count = segments_.size();
  k = std::min(k, n);
  if (k == 0) return {};

  SweepScratch& slabs = TlsSweepScratch();
  slabs.idx.resize(n);
  slabs.lower.resize(n);
  SegmentScratch& scratch = TlsSegmentScratch();
  scratch.live.assign(count, 0);
  scratch.pass.assign(count, SweepCompactResult{});
  std::uint32_t* idx = slabs.idx.data();
  double* lower = slabs.lower.data();

  // Free zeroth pivot: length-only lower bounds, one flat pass over each
  // segment's packed length array before any distance is computed.
  for (std::size_t g = 0; g < count; ++g) {
    const SweepSegment& seg = segments_[g];
    distance_.LengthLowerBounds(query.size(), seg.store->lengths_data(),
                                seg.store->size(), lower + seg.base);
    scratch.live[g] = seg.store->size();
  }
  std::iota(idx, idx + n, std::uint32_t{0});
  std::size_t live_pivots = pivots_.size();
  std::size_t total_live = n;

  SweepIncumbents inc(k);
  const LocalVisit visit{*this, query, inc, segment_stats};
  auto kth = [&]() { return inc.Kth(); };

  // One visit pass over every segment, folded in segment order. Returns
  // the next pivot to visit.
  auto pass = [&](std::int32_t rank, double d, std::uint32_t skip,
                  double bound) {
    ForEachSegment(count, total_live, [&](std::size_t g) {
      const SweepSegment& seg = segments_[g];
      scratch.pass[g] =
          VisitSegmentPass(seg, pivot_rank_, rank, d, skip, bound,
                           idx + seg.base, lower + seg.base, scratch.live[g]);
    });
    SweepCompactResult merged;
    for (std::size_t g = 0; g < count; ++g) {
      scratch.live[g] = scratch.pass[g].live;
      FoldSegmentMinima(scratch.pass[g], &merged);
    }
    total_live = merged.live;
    live_pivots -= merged.pivots_died;
    return merged.next_pivot;
  };

  std::size_t s = pivots_[0];  // start from the first base prototype
  if (tombstones != nullptr) {
    // Deletes are eliminated inside the compaction before anything is
    // visited: force the masked slots' bounds to +inf (the slabs are still
    // in global id order), then one pass drops them (lower >= bound is
    // inclusive, so +inf falls even to the infinite starting incumbent)
    // and hands back the minimal-bound live pivot to start from.
    ApplyTombstoneMask(tombstones, n, lower);
    s = pass(/*rank=*/-1, 0.0, /*skip=*/0xFFFFFFFFu, kInf);
  }
  while (live_pivots > 0 && s != kSweepNone) {
    const double d = visit(s, /*is_pivot=*/true);
    s = pass(pivot_rank_[s], d, static_cast<std::uint32_t>(s), inc.Kth());
  }
  // Static phase: no row left to apply, and every survivor lies below the
  // k-th incumbent the last pass eliminated against.
  SurvivorStream stream(inc.Kth(), n, count, scratch.hist);
  ForEachSegment(count, n, [&](std::size_t g) {
    const SweepSegment& seg = segments_[g];
    stream.Unpack(g, idx + seg.base, lower + seg.base, scratch.live[g],
                  seg.store->size(), seg.base);
  });
  VisitStream(segments_, n, stream, idx, lower, kth, visit);
  return Finish(inc, stats);
}

// The batched counterpart of `Lazy`: the caller already paid for every
// query-pivot distance (they are shared across the batch), so all pivot
// rows are applied before any elimination — the tightest pivot-based lower
// bounds the table can give — and only the surviving non-pivots are then
// visited adaptively. Same elimination semantics, different trajectory:
// see pivot_stage.h.
std::vector<NeighborResult> PivotSweep::WithRow(
    std::string_view query, std::size_t k, const double* row,
    QueryStats* stats, QueryStats* segment_stats) const {
  const std::size_t n = size_;
  const std::size_t count = segments_.size();
  const std::size_t p_count = pivots_.size();
  k = std::min(k, n);
  if (k == 0) return {};

  SweepScratch& slabs = TlsSweepScratch();
  slabs.idx.resize(n);
  slabs.lower.resize(n);
  SegmentScratch& scratch = TlsSegmentScratch();
  std::uint32_t* idx = slabs.idx.data();
  double* lower = slabs.lower.data();

  // Seed the incumbents with every pivot distance. These evaluations are
  // already paid for, so ties admit the lower index.
  SweepIncumbents inc(k);
  inc.SeedRow(pivots_, row, [](std::size_t) { return false; });

  // Per segment: every pivot row applied dense, the pivots (already in the
  // incumbents) lifted to +inf, then the slab counted into the stream
  // against the fully seeded k-th incumbent.
  SurvivorStream stream(inc.Kth(), n, count, scratch.hist);
  ForEachSegment(count, p_count * n, [&](std::size_t g) {
    const SweepSegment& seg = segments_[g];
    const std::size_t size = seg.store->size();
    double* seg_lower = lower + seg.base;
    SeedSegmentBounds(seg, distance_, query.size(), row, p_count,
                      /*tombstones=*/nullptr, seg_lower);
    for (std::size_t id : pivots_) {
      if (id - seg.base < size) seg_lower[id - seg.base] = kInf;
    }
    stream.Count(g, seg_lower, size);
  });

  // Adaptive non-pivot phase: the bounds are final, so the survivors are
  // visited in bound order against the improving incumbent.
  const LocalVisit visit{*this, query, inc, segment_stats};
  VisitStream(
      segments_, n, stream, idx, lower, [&]() { return inc.Kth(); }, visit);
  return Finish(inc, stats);
}

void PivotSweep::ComputePivotRow(std::string_view query, double* row,
                                 QueryStats* stats) const {
  for (std::size_t p = 0; p < pivots_.size(); ++p) {
    row[p] = distance_.Distance(query, View(pivots_[p]));
  }
  if (stats != nullptr) {
    stats->distance_computations += pivots_.size();
    stats->pivot_computations += pivots_.size();
  }
}

std::vector<std::int32_t> RankPivots(const std::vector<std::size_t>& pivots,
                                     std::size_t n, const std::string& who) {
  // Checked before the n-entry allocation, so a corrupt header count fails
  // here as a format error.
  if (n > kMaxSweepIds) {
    throw std::runtime_error(who + ": " + std::to_string(n) +
                             " ids exceed the sweep's 2^31 id limit");
  }
  std::vector<std::int32_t> pivot_rank;
  pivot_rank.assign(n, -1);
  for (std::size_t p = 0; p < pivots.size(); ++p) {
    if (pivots[p] >= n) {
      throw std::runtime_error(who + ": pivot index out of range");
    }
    if (pivot_rank[pivots[p]] >= 0) {
      throw std::runtime_error(who + ": duplicate pivot index");
    }
    pivot_rank[pivots[p]] = static_cast<std::int32_t>(p);
  }
  return pivot_rank;
}

PivotTables::PivotTables(std::vector<std::size_t> pivots, std::size_t n,
                         const std::string& who)
    : pivots_(std::move(pivots)), rank_(RankPivots(pivots_, n, who)) {}

void PivotTables::Build(const std::vector<SweepSegment>& segs,
                        const StringDistance& distance,
                        TablePrecision precision) {
  const PivotSweep sweep(segs, pivots_, rank_.data(), distance);
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
  // One task per table entry: the atomic work queue in ParallelFor balances
  // the load even when string lengths (and thus per-distance cost) vary
  // wildly, and writes are disjoint. Every distance kernel is thread-safe
  // (thread-local workspaces).
  ParallelFor(p_count * n, [&](std::size_t t) {
    const std::size_t p = t / n;
    const std::size_t i = t % n;
    const std::size_t g = sweep.SegmentOf(i);
    const SweepSegment& seg = segs[g];
    out.f64[g][p * sizes[g] + (i - seg.base)] = distance.Distance(
        sweep.View(pivots_[p]), seg.store->view(i - seg.base));
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
  if (!copy) {
    out.sizes_ = std::move(sizes);
    out.mapping_ = reader.file();
    return out;
  }
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
  return out;
}

void PivotTables::Write(BinaryWriter& writer, std::size_t first,
                        std::size_t last) const {
  const std::size_t np = pivots_.size();
  writer.Align();
  writer.Raw(pivots_.data(), np * sizeof(std::uint64_t));
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

}  // namespace cned
