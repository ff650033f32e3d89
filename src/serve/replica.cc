#include "serve/replica.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/binary_io.h"
#include "distances/registry.h"
#include "search/exhaustive.h"
#include "search/pivot_sweep.h"
#include "search/laesa.h"
#include "serve/shard_snapshot.h"

namespace cned {

std::string ManifestPath(const std::string& dir) {
  return dir + "/manifest.bin";
}

std::string ShardStorePath(const std::string& dir, std::size_t shard) {
  return dir + "/shard" + std::to_string(shard) + ".store.bin";
}

std::string ShardIndexPath(const std::string& dir, std::size_t shard) {
  return dir + "/shard" + std::to_string(shard) + ".index.bin";
}

void SaveServingSnapshot(const Laesa& index, const std::string& dir) {
  index.SaveRouterManifest(ManifestPath(dir));
  for (std::size_t s = 0; s < index.shard_count(); ++s) {
    index.segments()[s].store->SaveBinary(ShardStorePath(dir, s));
    index.SaveShard(s, ShardIndexPath(dir, s));
  }
}

ShardReplica::ShardReplica(const std::string& store_path,
                           const std::string& index_path,
                           const std::string& distance_name)
    : distance_(MakeDistance(distance_name)) {
  // Each file is mapped once, and its reader runs the full checksum pass
  // before any section is interpreted: the worker is the tier's integrity
  // gate (the section walks validate structure, not payload bytes).
  MappedReader store_reader(MappedFile::Open(store_path),
                            /*verify_checksum=*/true);
  store_ = PrototypeStore::Read(store_reader, /*copy=*/false,
                                "ShardReplica (" + store_path + ")");

  MappedReader reader(MappedFile::Open(index_path), /*verify_checksum=*/true);
  std::uint32_t version = 0;
  const auto counts = reader.Header(kShardSliceMagic, kShardSliceVersion,
                                    kShardSliceVersionQuant, &version);
  n_total_ = counts[0];
  shard_count_ = counts[1];
  const std::uint64_t np = counts[2];
  shard_id_ = counts[3];
  const std::uint64_t n_s = counts[4];
  base_ = counts[5];
  if (shard_id_ >= shard_count_ || base_ > n_total_ ||
      n_s > n_total_ - base_) {
    throw std::runtime_error("ShardReplica: inconsistent shard header (" +
                             index_path + ")");
  }
  if (n_s != store_.size()) {
    throw std::runtime_error(
        "ShardReplica: index slice and store disagree on shard size (" +
        index_path + ")");
  }
  const std::string who = "ShardReplica (" + index_path + ")";
  TablePrecision precision = TablePrecision::kF64;
  if (version == kShardSliceVersionQuant) {
    // v2 leads with the {precision, reserved} section (shard_snapshot.h).
    precision = TablePrecisionFromCode(reader.Array<std::uint64_t>(2)[0], who);
  }
  // The rank array spans the whole global id space, exactly as the
  // in-process index keeps it: the flagged kernel gathers rank[global id]
  // for ids in this segment, and the seed kernel reads the slice at base_.
  pivot_table_ = PivotTables::Read(reader, np, n_total_, {n_s}, precision,
                                   /*copy=*/false, who);
}

ShardReplica::SweepSlot& ShardReplica::NewSlot(std::uint32_t qid) {
  auto it = sweeps_.find(qid);
  if (it == sweeps_.end()) {
    if (sweeps_.size() >= kMaxSweeps) {
      throw std::runtime_error("ShardReplica: sweep slot table full");
    }
    it = sweeps_.emplace(qid, std::make_unique<SweepSlot>()).first;
  }
  SweepSlot& slot = *it->second;
  slot.idx.resize(store_.size());
  slot.lower.resize(store_.size());
  return slot;
}

ShardReplica::SweepSlot& ShardReplica::SlotOf(std::uint32_t qid) {
  const auto it = sweeps_.find(qid);
  if (it == sweeps_.end()) {
    throw std::out_of_range("ShardReplica: unknown query id " +
                            std::to_string(qid));
  }
  return *it->second;
}

const ShardReplica::SweepSlot& ShardReplica::SlotOf(std::uint32_t qid) const {
  const auto it = sweeps_.find(qid);
  if (it == sweeps_.end()) {
    throw std::out_of_range("ShardReplica: unknown query id " +
                            std::to_string(qid));
  }
  return *it->second;
}

std::size_t ShardReplica::live(std::uint32_t qid) const {
  return SlotOf(qid).live;
}

std::size_t ShardReplica::live_pivots(std::uint32_t qid) const {
  return SlotOf(qid).live_pivots;
}

void ShardReplica::EndSweep(std::uint32_t qid) { sweeps_.erase(qid); }

SweepCompactResult ShardReplica::BeginLazy(std::uint32_t qid,
                                           std::string_view query) {
  SweepSlot& slot = NewSlot(qid);
  slot.query.assign(query);
  const std::size_t n_s = store_.size();
  distance_->LengthLowerBounds(slot.query.size(), store_.lengths_data(), n_s,
                               slot.lower.data());
  slot.live_pivots = 0;
  for (std::size_t j = 0; j < n_s; ++j) {
    slot.idx.data()[j] = static_cast<std::uint32_t>(base_ + j);
    slot.live_pivots += pivot_table_.rank()[base_ + j] >= 0 ? 1 : 0;
  }
  slot.live = n_s;
  // Mask this shard's base tombstones out of the slab before anything is
  // visited, and hand the router this segment's minimal-bound survivors so
  // it can choose a live starting candidate across shards (a dead global
  // pivot 0 must not be visited anywhere).
  if (base_dead_ > 0) {
    ApplyTombstoneMask(tombs_.data(), n_s, slot.lower.data());
  }
  const SweepCompactResult pass = VisitSegmentPass(
      segment(), pivot_table_.rank(), /*rank=*/-1, 0.0, /*skip=*/0xFFFFFFFFu,
      std::numeric_limits<double>::infinity(), slot.idx.data(),
      slot.lower.data(), slot.live);
  slot.live = pass.live;
  slot.live_pivots -= pass.pivots_died;
  return pass;
}

bool ShardReplica::Insert(std::uint64_t id, std::string_view s) {
  // Per-shard ids are assigned (and replayed) in ascending order, so a
  // duplicate delivery — a retry after a lost reply — is exactly an id that
  // is not past the current tail.
  if (!delta_ids_.empty() && id <= delta_ids_.back()) return false;
  delta_store_.Add(s);
  delta_ids_.push_back(id);
  if (!delta_tombs_.empty()) {
    delta_tombs_.resize(TombstoneWords(delta_store_.size()), 0);
  }
  return true;
}

bool ShardReplica::Remove(std::uint64_t id) {
  if (id >= base_ && id - base_ < store_.size()) {
    const std::size_t j = id - base_;
    if (tombs_.empty()) tombs_.assign(TombstoneWords(store_.size()), 0);
    if (TestTombstone(tombs_.data(), j)) return false;
    SetTombstone(tombs_.data(), j);
    ++base_dead_;
    return true;
  }
  const auto it = std::lower_bound(delta_ids_.begin(), delta_ids_.end(), id);
  if (it == delta_ids_.end() || *it != id) return false;
  const std::size_t j = static_cast<std::size_t>(it - delta_ids_.begin());
  if (delta_tombs_.empty()) {
    delta_tombs_.assign(TombstoneWords(delta_store_.size()), 0);
  }
  if (TestTombstone(delta_tombs_.data(), j)) return false;
  SetTombstone(delta_tombs_.data(), j);
  ++delta_dead_;
  return true;
}

void ShardReplica::DeltaScan(std::string_view query, double cap0,
                             std::size_t k, std::vector<NeighborResult>* hits,
                             std::uint64_t* computations,
                             std::uint64_t* abandons) const {
  hits->clear();
  QueryStats scan;
  BoundedScan(*distance_, query, delta_store_,
              delta_tombs_.empty() ? nullptr : delta_tombs_.data(),
              delta_ids_.data(), cap0, k, hits, &scan);
  *computations = scan.distance_computations;
  *abandons = scan.bounded_abandons;
}

SweepCompactResult ShardReplica::BeginRow(std::uint32_t qid,
                                          std::string_view query,
                                          const double* row,
                                          double seed_bound) {
  SweepSlot& slot = NewSlot(qid);
  slot.query.assign(query);
  // Tombstoned base slots go to +inf before the seed compaction — no
  // protocol change needed: the mask rides the shard's own state. The
  // router's step loop reads packed survivors, so the dense slab is
  // compacted in place.
  const SweepSegment seg = segment();
  SeedSegmentBounds(seg, *distance_, slot.query.size(), row, num_pivots(),
                    base_dead_ > 0 ? tombs_.data() : nullptr,
                    slot.lower.data());
  const SweepCompactResult out = ActiveSweepKernels().compact_seed(
      slot.lower.data(), pivot_table_.rank() + seg.base, store_.size(),
      static_cast<std::uint32_t>(seg.base), seed_bound, slot.idx.data(),
      slot.lower.data());
  slot.live = out.live;
  slot.live_pivots = 0;  // the row sweep's adaptive phase never revisits
                         // pivots
  return out;
}

double ShardReplica::Eval(std::uint32_t qid, std::size_t global_id,
                          double cap) const {
  if (global_id < base_ || global_id - base_ >= store_.size()) {
    throw std::out_of_range("ShardReplica::Eval: id outside this shard");
  }
  const SweepSlot& slot = SlotOf(qid);
  return distance_->DistanceBounded(slot.query, store_.view(global_id - base_),
                                    cap);
}

SweepCompactResult ShardReplica::Step(std::uint32_t qid, std::uint32_t skip,
                                      std::int32_t rank, double d,
                                      double bound) {
  // The rank selects a table row unchecked (VisitSegmentPass): a frame's
  // rank past the pivot count would read beyond the mapped slice.
  if (rank < -1 || rank >= static_cast<std::int64_t>(num_pivots())) {
    throw std::out_of_range("ShardReplica::Step: pivot rank out of range");
  }
  SweepSlot& slot = SlotOf(qid);
  const SweepCompactResult out =
      VisitSegmentPass(segment(), pivot_table_.rank(), rank, d, skip, bound,
                       slot.idx.data(), slot.lower.data(), slot.live);
  slot.live = out.live;
  slot.live_pivots -= out.pivots_died;
  return out;
}

SweepCompactResult ShardReplica::StepRow(std::uint32_t qid, std::uint32_t skip,
                                         double bound) {
  SweepSlot& slot = SlotOf(qid);
  const SweepKernels& kern = ActiveSweepKernels();
  const SweepCompactResult out = kern.eliminate_and_compact(
      slot.idx.data(), slot.lower.data(), slot.live, skip, bound);
  slot.live = out.live;
  return out;
}

}  // namespace cned
