#include "search/mutable_laesa.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <utility>

#include "search/exhaustive.h"
#include "search/sweep_kernel.h"

namespace cned {

namespace {

std::shared_ptr<std::vector<std::uint64_t>> CopyOrMakeTombs(
    const std::shared_ptr<const std::vector<std::uint64_t>>& old,
    std::size_t count) {
  auto tombs = old ? std::make_shared<std::vector<std::uint64_t>>(*old)
                   : std::make_shared<std::vector<std::uint64_t>>();
  tombs->resize(TombstoneWords(count), 0);
  return tombs;
}

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
    auto store = std::make_shared<const PrototypeStore>(base);
    auto ids = std::make_shared<std::vector<std::uint64_t>>(base.size());
    for (std::size_t i = 0; i < base.size(); ++i) (*ids)[i] = i;
    st->base.store = store;
    st->base.ids = std::move(ids);
    st->base_index = std::make_shared<const Laesa>(
        PrototypeStoreRef(*store), distance_, options_.num_pivots,
        options_.table_precision);
  }
  st->next_id = base.size();
  state_ = std::move(st);
}

MutableLaesa::MutableLaesa(SnapshotTag, const std::string& dir,
                           StringDistancePtr distance, Options options)
    : distance_(std::move(distance)), options_(options) {
  ValidateOptions(options_);
  auto store = std::make_shared<const PrototypeStore>(
      PrototypeStore::Map(SnapshotStorePath(dir)));
  auto ids = std::make_shared<std::vector<std::uint64_t>>(store->size());
  for (std::size_t i = 0; i < store->size(); ++i) (*ids)[i] = i;
  auto st = std::make_shared<State>();
  st->base.store = store;
  st->base.ids = std::move(ids);
  st->base_index = std::make_shared<const Laesa>(Laesa::Map(
      SnapshotIndexPath(dir), PrototypeStoreRef(*store), distance_));
  st->next_id = store->size();
  state_ = std::move(st);
}

MutableLaesa MutableLaesa::FromSnapshot(const std::string& dir,
                                        StringDistancePtr distance,
                                        Options options) {
  return MutableLaesa(SnapshotTag{}, dir, std::move(distance), options);
}

MutableLaesa::~MutableLaesa() { WaitMerge(); }

std::string MutableLaesa::SnapshotStorePath(const std::string& dir) {
  return dir + "/mutable.store.bin";
}

std::string MutableLaesa::SnapshotIndexPath(const std::string& dir) {
  return dir + "/mutable.index.bin";
}

std::uint64_t MutableLaesa::Insert(std::string_view s) {
  std::lock_guard<std::mutex> lk(write_mu_);
  const auto cur = Pin();
  auto next = std::make_shared<State>(*cur);
  // Copy-on-write append: readers pinned on the old state keep its arena.
  auto store = cur->delta.store
                   ? std::make_shared<PrototypeStore>(*cur->delta.store)
                   : std::make_shared<PrototypeStore>();
  store->Add(s);
  auto ids = cur->delta.ids
                 ? std::make_shared<std::vector<std::uint64_t>>(
                       *cur->delta.ids)
                 : std::make_shared<std::vector<std::uint64_t>>();
  const std::uint64_t id = cur->next_id;
  ids->push_back(id);
  next->delta.store = std::move(store);
  next->delta.ids = std::move(ids);
  if (cur->delta.tombs) {
    next->delta.tombs =
        CopyOrMakeTombs(cur->delta.tombs, next->delta.count());
  }
  next->next_id = id + 1;
  next->epoch = cur->epoch + 1;
  Publish(std::move(next));
  return id;
}

MutableLaesa::Slot MutableLaesa::Locate(const State& st, std::uint64_t id) {
  // Each segment's ids ascend and slots are positions: a binary search.
  for (Segment State::*which : {&State::base, &State::delta}) {
    const Segment& seg = st.*which;
    if (!seg.ids) continue;
    const auto it = std::lower_bound(seg.ids->begin(), seg.ids->end(), id);
    if (it == seg.ids->end() || *it != id) continue;
    const auto slot = static_cast<std::size_t>(it - seg.ids->begin());
    return {which, slot,
            !(seg.tombs && TestTombstone(seg.tombs->data(), slot))};
  }
  return {};
}

bool MutableLaesa::Remove(std::uint64_t id) {
  std::lock_guard<std::mutex> lk(write_mu_);
  const auto cur = Pin();
  const Slot at = Locate(*cur, id);
  if (!at.live) return false;
  auto next = std::make_shared<State>(*cur);
  const Segment& old = (*cur).*at.segment;
  Segment& seg = (*next).*at.segment;
  auto tombs = CopyOrMakeTombs(old.tombs, old.count());
  SetTombstone(tombs->data(), at.slot);
  seg.tombs = std::move(tombs);
  seg.dead = old.dead + 1;
  next->epoch = cur->epoch + 1;
  Publish(std::move(next));
  return true;
}

bool MutableLaesa::Contains(std::uint64_t id) const {
  return Locate(*Pin(), id).live;
}

std::string MutableLaesa::GetString(std::uint64_t id) const {
  const auto st = Pin();
  const Slot at = Locate(*st, id);
  if (!at.live) {
    throw std::out_of_range("MutableLaesa::GetString: unknown or removed id");
  }
  return std::string(((*st).*at.segment).store->view(at.slot));
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
  return st->base.dead + st->delta.dead;
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
    const auto r = st->base_index->KNearest(query, k, &qs, nullptr,
                                            st->base.tomb_bits());
    const auto& ids = *st->base.ids;
    best.reserve(r.size());
    for (const auto& nr : r) {
      best.push_back({static_cast<std::size_t>(ids[nr.index]), nr.distance});
    }
  }

  // Delta segment: one exhaustive ascending-slot scan, each evaluation
  // bounded by the merged incumbent (same ">= abandons" semantics as the
  // sweeps) and merged with the strict-improvement gate. Every delta id is
  // larger than every base id, so a delta candidate that only ties the
  // k-th incumbent must lose — exactly what the gate enforces.
  if (st->delta.live() > 0) {
    BoundedScan(*distance_, query, *st->delta.store, st->delta.tomb_bits(),
                st->delta.ids->data(),
                std::numeric_limits<double>::infinity(), k, &best, &qs);
  }

  if (stats != nullptr) *stats += qs;
  return best;
}

bool MutableLaesa::StartMerge(const std::string& snapshot_dir) {
  std::lock_guard<std::mutex> lk(write_mu_);
  if (merging_ || merge_thread_.joinable()) return false;
  const auto pinned = Pin();
  if (pinned->delta.count() == 0 && pinned->base.dead == 0) return false;
  merging_ = true;
  merge_thread_ = std::thread(&MutableLaesa::MergeBody, this, pinned,
                              snapshot_dir);
  return true;
}

void MutableLaesa::WaitMerge() {
  std::thread t;
  {
    std::lock_guard<std::mutex> lk(write_mu_);
    t.swap(merge_thread_);
  }
  if (t.joinable()) t.join();
}

bool MutableLaesa::MergeNow(const std::string& snapshot_dir) {
  if (!StartMerge(snapshot_dir)) return false;
  WaitMerge();
  return true;
}

std::string MutableLaesa::merge_error() const {
  std::lock_guard<std::mutex> lk(write_mu_);
  return merge_error_;
}

void MutableLaesa::MergeBody(std::shared_ptr<const State> pinned,
                             std::string dir) {
  // Everything below until the final publish runs off-lock: queries keep
  // serving (and mutators keep publishing) against the live state while
  // the pinned epoch is rewritten.
  const std::size_t covered = pinned->delta.count();
  std::string error;
  std::shared_ptr<const PrototypeStore> merged_store;
  std::shared_ptr<std::vector<std::uint64_t>> merged_ids;
  std::shared_ptr<const Laesa> merged_index;
  try {
    auto store = std::make_shared<PrototypeStore>();
    merged_ids = std::make_shared<std::vector<std::uint64_t>>();
    const auto append_live = [&](const Segment& seg) {
      for (std::size_t j = 0; j < seg.count(); ++j) {
        if (seg.tombs && TestTombstone(seg.tombs->data(), j)) continue;
        store->Add(seg.store->view(j));
        merged_ids->push_back((*seg.ids)[j]);
      }
    };
    // Base first, then the covered delta prefix: both are in ascending-id
    // order and all base ids precede all delta ids, so the merged slot
    // order is ascending-id by construction.
    append_live(pinned->base);
    append_live(pinned->delta);
    merged_store = store;
    if (store->size() > 0) {
      if (!dir.empty()) {
        // Durable snapshot: write to *.tmp, fsync-free rename into place.
        // A crash anywhere before the renames leaves the old snapshot
        // untouched; after them the new one is complete.
        const std::string store_path = SnapshotStorePath(dir);
        const std::string index_path = SnapshotIndexPath(dir);
        store->SaveBinary(store_path + ".tmp");
        {
          const Laesa built(PrototypeStoreRef(*store), distance_,
                            options_.num_pivots, options_.table_precision);
          built.Save(index_path + ".tmp");
        }
        if (std::rename((store_path + ".tmp").c_str(),
                        store_path.c_str()) != 0 ||
            std::rename((index_path + ".tmp").c_str(),
                        index_path.c_str()) != 0) {
          throw std::runtime_error(
              "MutableLaesa merge: rename into snapshot dir failed");
        }
        // Serve the new base zero-copy off the snapshot just written.
        auto mapped = std::make_shared<const PrototypeStore>(
            PrototypeStore::Map(store_path));
        merged_index = std::make_shared<const Laesa>(Laesa::Map(
            index_path, PrototypeStoreRef(*mapped), distance_));
        merged_store = mapped;
      } else {
        merged_index = std::make_shared<const Laesa>(
            PrototypeStoreRef(*merged_store), distance_, options_.num_pivots,
            options_.table_precision);
      }
    }
  } catch (const std::exception& e) {
    error = e.what();
  }

  // Reconcile against whatever the state has become and swap epochs. The
  // publish is the only synchronised step; readers pinned on the old epoch
  // keep their segments alive through their shared_ptrs.
  std::lock_guard<std::mutex> lk(write_mu_);
  if (!error.empty()) {
    merge_error_ = error;
    merging_ = false;
    return;
  }
  const auto cur = Pin();
  auto next = std::make_shared<State>();
  next->base.store = merged_store;
  next->base.ids = merged_ids;
  next->base_index = merged_index;
  // Entries removed *while* the merge ran become tombstones on the new
  // base. Merged slots align with a fresh walk over the pinned segments
  // (base slots are never restructured by mutations; the delta is
  // append-only, so slots < covered are unchanged in `cur`).
  {
    std::shared_ptr<std::vector<std::uint64_t>> tombs;
    std::size_t dead = 0;
    std::size_t m = 0;
    const auto mark_dead = [&](const Segment& was, const Segment& now) {
      for (std::size_t j = 0; j < was.count(); ++j) {
        if (was.tombs && TestTombstone(was.tombs->data(), j)) continue;
        if (now.tombs && TestTombstone(now.tombs->data(), j)) {
          if (!tombs) {
            tombs = CopyOrMakeTombs(nullptr, merged_ids->size());
          }
          SetTombstone(tombs->data(), m);
          ++dead;
        }
        ++m;
      }
    };
    mark_dead(pinned->base, cur->base);
    mark_dead(pinned->delta, cur->delta);
    next->base.tombs = std::move(tombs);
    next->base.dead = dead;
  }
  // Entries inserted while the merge ran: re-pack the delta tail.
  if (cur->delta.count() > covered) {
    auto dstore = std::make_shared<PrototypeStore>();
    auto dids = std::make_shared<std::vector<std::uint64_t>>();
    std::shared_ptr<std::vector<std::uint64_t>> dtombs;
    std::size_t ddead = 0;
    const std::size_t tail = cur->delta.count() - covered;
    for (std::size_t j = covered; j < cur->delta.count(); ++j) {
      dstore->Add(cur->delta.store->view(j));
      dids->push_back((*cur->delta.ids)[j]);
      if (cur->delta.tombs &&
          TestTombstone(cur->delta.tombs->data(), j)) {
        if (!dtombs) dtombs = CopyOrMakeTombs(nullptr, tail);
        SetTombstone(dtombs->data(), j - covered);
        ++ddead;
      }
    }
    next->delta.store = std::move(dstore);
    next->delta.ids = std::move(dids);
    next->delta.tombs = std::move(dtombs);
    next->delta.dead = ddead;
  }
  next->next_id = cur->next_id;
  next->epoch = cur->epoch + 1;
  merge_error_.clear();
  merging_ = false;
  Publish(std::move(next));
}

}  // namespace cned
