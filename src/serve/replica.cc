#include "serve/replica.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/binary_io.h"
#include "distances/registry.h"
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
  removed_ = Tombstones(n_s);
  const std::string who = "ShardReplica (" + index_path + ")";
  TablePrecision precision = TablePrecision::kF64;
  if (version == kShardSliceVersionQuant) {
    // v2 leads with the {precision, reserved} section (shard_snapshot.h).
    precision = TablePrecisionFromCode(reader.Array<std::uint64_t>(2)[0], who);
  }
  // The global N only bounds the pivot ids: nothing is allocated over it.
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
  slot.lower.resize(store_.size());
  slot.idx.resize(store_.size());
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

void ShardReplica::EndSweep(std::uint32_t qid) { sweeps_.erase(qid); }

bool ShardReplica::Insert(std::uint64_t id, std::string_view s) {
  // Per-shard ids are assigned (and replayed) in ascending order, so a
  // duplicate delivery — a retry after a lost reply — is exactly an id that
  // is not past the current tail, which the segment ignores.
  return delta_.Insert(id, s);
}

bool ShardReplica::Remove(std::uint64_t id) {
  if (id >= base_ && id - base_ < store_.size()) {
    return removed_.Kill(id - base_);
  }
  return delta_.Remove(id);
}

void ShardReplica::DeltaScan(std::string_view query, double cap0,
                             std::size_t k, std::vector<NeighborResult>* hits,
                             std::uint64_t* computations,
                             std::uint64_t* abandons) const {
  hits->clear();
  QueryStats scan;
  delta_.Scan(*distance_, query, cap0, k, hits, &scan);
  *computations = scan.distance_computations;
  *abandons = scan.bounded_abandons;
}

SweepCompactResult ShardReplica::BeginRow(std::uint32_t qid,
                                          std::string_view query,
                                          const std::vector<PivotRow>& rows,
                                          double seed_bound) {
  // A rank selects a row of the mapped slice unchecked (ApplyPivotRows):
  // a frame's rank past the pivot count would read beyond it.
  const std::size_t np = num_pivots();
  const bool valid =
      rows.size() <= np &&
      std::all_of(rows.begin(), rows.end(),
                  [np](const PivotRow& r) { return r.rank < np; });
  if (!valid) {
    sweeps_.erase(qid);
    throw std::out_of_range("ShardReplica::BeginRow: pivot rows out of range");
  }
  SweepSlot& slot = NewSlot(qid);
  slot.query.assign(query);
  // Tombstoned base slots go to +inf before the stream counts — no
  // protocol change needed: the mask rides the shard's own state. So do
  // the pivots: the router holds them as incumbents, or they are dead.
  const std::size_t n_s = store_.size();
  double* lower = slot.lower.data();
  distance_->LengthLowerBounds(slot.query.size(), store_.lengths_data(), n_s,
                               lower);
  std::vector<std::size_t> ranks(rows.size());
  std::vector<double> d(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    ranks[r] = rows[r].rank;
    d[r] = rows[r].d;
  }
  ApplyPivotRows(segment(), ranks.data(), rows.size(), d.data(), 1, &lower);
  if (const std::uint64_t* mask = removed_.mask()) {
    ApplyTombstoneMask(mask, n_s, lower);
  }
  const std::uint32_t* ids = pivot_table_.pivots().sorted();
  for (const std::uint32_t* it = std::lower_bound(ids, ids + np, base_);
       it != ids + np && *it - base_ < n_s; ++it) {
    lower[*it - base_] = std::numeric_limits<double>::infinity();
  }
  // The in-process sweep's stream over one segment, its ids local slots.
  SurvivorStream& stream =
      slot.stream.emplace(seed_bound, n_s, /*segments=*/1, slot.hist);
  stream.Count(0, lower, n_s);
  slot.survivors = stream.Place();
  stream.Scatter(0, lower, n_s, /*base=*/0, slot.idx.data());
  slot.sorted = 0;
  return HeadAt(slot, stream.After(slot.idx.data(), lower, kSweepNone,
                                   &slot.sorted));
}

double ShardReplica::Eval(std::uint32_t qid, std::size_t global_id,
                          double cap, SweepCompactResult* next) {
  if (global_id < base_ || global_id - base_ >= store_.size()) {
    throw std::out_of_range("ShardReplica::Eval: id outside this shard");
  }
  SweepSlot& slot = SlotOf(qid);
  const std::size_t local = global_id - base_;
  *next = HeadAt(slot, slot.stream.value().After(slot.idx.data(),
                                                 slot.lower.data(), local,
                                                 &slot.sorted));
  return distance_->DistanceBounded(slot.query, store_.view(local), cap);
}

SweepCompactResult ShardReplica::HeadAt(const SweepSlot& slot,
                                        std::size_t r) const {
  SweepCompactResult head;
  if (r < slot.survivors) {
    const std::uint32_t local = slot.idx.data()[r];
    head.next = base_ + local;
    head.next_key = slot.lower.data()[local];
  }
  return head;
}

}  // namespace cned
