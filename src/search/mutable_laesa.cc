#include "search/mutable_laesa.h"

#include <atomic>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <utility>

namespace cned {

namespace {

void ValidateOptions(const MutableLaesa::Options& options) {
  if (options.num_pivots == 0) {
    throw std::invalid_argument("MutableLaesa: need at least one pivot");
  }
}

}  // namespace

MutableLaesa::MutableLaesa(StringDistancePtr distance, Options options)
    : distance_(std::move(distance)), options_(options) {
  ValidateOptions(options_);
  state_ = std::make_shared<State>();
}

MutableLaesa::MutableLaesa(const std::vector<std::string>& base,
                           StringDistancePtr distance, Options options)
    : distance_(std::move(distance)), options_(options) {
  ValidateOptions(options_);
  auto st = std::make_shared<State>();
  if (!base.empty()) {
    std::vector<std::uint64_t> ids(base.size());
    for (std::size_t i = 0; i < base.size(); ++i) ids[i] = i;
    st->base = MutableSegment(PrototypeStore(base), std::move(ids));
    st->base_index = std::make_shared<const Laesa>(
        PrototypeStoreRef(st->base.store()), distance_, options_.num_pivots,
        options_.table_precision);
  }
  st->next_id = base.size();
  state_ = std::move(st);
}

MutableLaesa::MutableLaesa(SnapshotTag, const std::string& dir,
                           StringDistancePtr distance, Options options)
    : distance_(std::move(distance)), options_(options) {
  ValidateOptions(options_);
  PrototypeStore store = PrototypeStore::Map(SnapshotStorePath(dir));
  std::vector<std::uint64_t> ids(store.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  auto st = std::make_shared<State>();
  st->base = MutableSegment(std::move(store), std::move(ids));
  st->base_index = std::make_shared<const Laesa>(Laesa::Map(
      SnapshotIndexPath(dir), PrototypeStoreRef(st->base.store()), distance_));
  st->next_id = st->base.count();
  state_ = std::move(st);
}

MutableLaesa MutableLaesa::FromSnapshot(const std::string& dir,
                                        StringDistancePtr distance,
                                        Options options) {
  return MutableLaesa(SnapshotTag{}, dir, std::move(distance), options);
}

std::string MutableLaesa::SnapshotStorePath(const std::string& dir) {
  return dir + "/mutable.store.bin";
}

std::string MutableLaesa::SnapshotIndexPath(const std::string& dir) {
  return dir + "/mutable.index.bin";
}

std::uint64_t MutableLaesa::Insert(std::string_view s) {
  std::lock_guard<std::mutex> lk(write_mu_);
  const auto cur = Pin();
  // Copy-on-write append: readers pinned on the old state keep its arena.
  auto next = std::make_shared<State>(*cur);
  const std::uint64_t id = cur->next_id;
  next->delta.Insert(id, s);
  next->next_id = id + 1;
  next->epoch = cur->epoch + 1;
  Publish(std::move(next));
  return id;
}

const MutableSegment* MutableLaesa::Locate(const State& st, std::uint64_t id,
                                           std::size_t* slot) {
  for (const MutableSegment* seg : {&st.base, &st.delta}) {
    *slot = seg->Locate(id);
    if (*slot != MutableSegment::kNone) return seg;
  }
  return nullptr;
}

bool MutableLaesa::Remove(std::uint64_t id) {
  std::lock_guard<std::mutex> lk(write_mu_);
  const auto cur = Pin();
  // The kill copies only the tombstone bitmap the old state shares.
  auto next = std::make_shared<State>(*cur);
  if (!next->base.Remove(id) && !next->delta.Remove(id)) return false;
  next->epoch = cur->epoch + 1;
  Publish(std::move(next));
  return true;
}

bool MutableLaesa::Contains(std::uint64_t id) const {
  std::size_t slot = 0;
  return Locate(*Pin(), id, &slot) != nullptr;
}

std::string MutableLaesa::GetString(std::uint64_t id) const {
  const auto st = Pin();
  std::size_t slot = 0;
  const MutableSegment* seg = Locate(*st, id, &slot);
  if (seg == nullptr) {
    throw std::out_of_range("MutableLaesa::GetString: unknown or removed id");
  }
  return std::string(seg->view(slot));
}

std::size_t MutableLaesa::size() const {
  const auto st = Pin();
  return st->base.live() + st->delta.live();
}

std::uint64_t MutableLaesa::next_id() const { return Pin()->next_id; }

std::uint64_t MutableLaesa::epoch() const { return Pin()->epoch; }

std::size_t MutableLaesa::delta_size() const { return Pin()->delta.live(); }

std::size_t MutableLaesa::tombstone_count() const {
  const auto st = Pin();
  return st->base.dead() + st->delta.dead();
}

std::vector<NeighborResult> MutableLaesa::KNearest(std::string_view query,
                                                   std::size_t k,
                                                   QueryStats* stats) const {
  const auto st = Pin();  // the whole query runs against this epoch
  std::vector<NeighborResult> best;
  if (k == 0) return best;
  QueryStats qs;

  // Base segment: the masked LAESA sweep, slot results mapped to stable
  // ids. Slots are in ascending-id order, so the sweep's (distance, slot)
  // tie-break IS the (distance, id) tie-break.
  if (st->base_index && st->base.live() > 0) {
    const auto r =
        st->base_index->KNearest(query, k, &qs, nullptr, st->base.mask());
    best.reserve(r.size());
    for (const auto& nr : r) {
      best.push_back(
          {static_cast<std::size_t>(st->base.id(nr.index)), nr.distance});
    }
  }

  // Delta segment: one exhaustive ascending-slot scan, each evaluation
  // bounded by the merged incumbent (same ">= abandons" semantics as the
  // sweeps) and merged with the strict-improvement gate. Every delta id is
  // larger than every base id, so a delta candidate that only ties the
  // k-th incumbent must lose — exactly what the gate enforces.
  if (st->delta.live() > 0) {
    st->delta.Scan(*distance_, query, std::numeric_limits<double>::infinity(),
                   k, &best, &qs);
  }

  if (stats != nullptr) *stats += qs;
  return best;
}

bool MutableLaesa::MergeNow(const std::string& snapshot_dir) {
  std::shared_ptr<const State> pinned;
  {
    std::lock_guard<std::mutex> lk(write_mu_);
    if (merging_) return false;
    pinned = Pin();
    if (pinned->delta.count() == 0 && pinned->base.dead() == 0) return false;
    merging_ = true;
  }
  // Everything below until the final publish runs off-lock: queries keep
  // serving (and mutators keep publishing) against the live state while
  // the pinned epoch is rewritten.
  const std::size_t covered = pinned->delta.count();
  std::string error;
  MutableSegment merged;
  std::shared_ptr<const Laesa> merged_index;
  try {
    // Base first, then the covered delta prefix: both are in ascending-id
    // order and all base ids precede all delta ids, so the merged slot
    // order is ascending-id by construction.
    PrototypeStore store;
    std::vector<std::uint64_t> ids;
    for (const MutableSegment* seg : {&pinned->base, &pinned->delta}) {
      seg->ForEachLive([&](std::size_t j) {
        store.Add(seg->view(j));
        ids.push_back(seg->id(j));
      });
    }
    if (!ids.empty() && !snapshot_dir.empty()) {
      // Durable snapshot: write to *.tmp, fsync-free rename into place.
      // A crash anywhere before the renames leaves the old snapshot
      // untouched; after them the new one is complete.
      const std::string store_path = SnapshotStorePath(snapshot_dir);
      const std::string index_path = SnapshotIndexPath(snapshot_dir);
      store.SaveBinary(store_path + ".tmp");
      Laesa(PrototypeStoreRef(store), distance_, options_.num_pivots,
            options_.table_precision)
          .Save(index_path + ".tmp");
      if (std::rename((store_path + ".tmp").c_str(), store_path.c_str()) !=
              0 ||
          std::rename((index_path + ".tmp").c_str(), index_path.c_str()) !=
              0) {
        throw std::runtime_error(
            "MutableLaesa merge: rename into snapshot dir failed");
      }
      // Serve the new base zero-copy off the snapshot just written.
      merged = MutableSegment(PrototypeStore::Map(store_path), std::move(ids));
      merged_index = std::make_shared<const Laesa>(Laesa::Map(
          index_path, PrototypeStoreRef(merged.store()), distance_));
    } else if (!ids.empty()) {
      merged = MutableSegment(std::move(store), std::move(ids));
      merged_index = std::make_shared<const Laesa>(
          PrototypeStoreRef(merged.store()), distance_, options_.num_pivots,
          options_.table_precision);
    }
  } catch (const std::exception& e) {
    error = e.what();
  }

  // Reconcile against whatever the state has become and swap epochs. The
  // publish is the only synchronised step; readers pinned on the old epoch
  // keep their segments alive through their shared_ptrs.
  std::lock_guard<std::mutex> lk(write_mu_);
  merging_ = false;
  if (!error.empty()) {
    merge_error_ = error;
    return true;
  }
  const auto cur = Pin();
  auto next = std::make_shared<State>();
  next->base = std::move(merged);
  next->base_index = std::move(merged_index);
  // Entries removed *while* the merge ran become tombstones on the new
  // base: base slots are never restructured by mutations, and the delta
  // is append-only, so slots < covered are the pinned ones in `cur`.
  for (const auto& [was, now] : {std::pair{&pinned->base, &cur->base},
                                 std::pair{&pinned->delta, &cur->delta}}) {
    was->ForEachLive([&](std::size_t j) {
      if (now->IsDead(j)) next->base.Remove(was->id(j));
    });
  }
  // Entries inserted while the merge ran: re-pack the delta tail.
  next->delta = cur->delta.Tail(covered);
  next->next_id = cur->next_id;
  next->epoch = cur->epoch + 1;
  merge_error_.clear();
  Publish(std::move(next));
  return true;
}

std::string MutableLaesa::merge_error() const {
  std::lock_guard<std::mutex> lk(write_mu_);
  return merge_error_;
}

}  // namespace cned
