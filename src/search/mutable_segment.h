#ifndef CNED_SEARCH_MUTABLE_SEGMENT_H_
#define CNED_SEARCH_MUTABLE_SEGMENT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "datasets/prototype_store.h"
#include "distances/distance.h"
#include "search/nn_searcher.h"

namespace cned {

/// The deletes of the mutable tier over slots [0, n), n set at construction
/// and raised by `Grow`: a packed bitmap (sweep_kernel.h's layout)
/// allocated at the first kill, and a dead count. A sweep masks the set
/// bits to +inf bounds and a scan skips them, so a removed prototype never
/// surfaces.
///
/// Copies share the bitmap. `Kill` and `Grow` copy it first when another
/// copy shares it, so a copy taken earlier (a published epoch) never sees
/// the change, while a sole owner mutates in place.
class Tombstones {
 public:
  Tombstones() = default;
  explicit Tombstones(std::size_t size) : size_(size) {}

  std::size_t dead() const { return dead_; }

  /// True when `slot` (< n) is dead.
  bool IsDead(std::size_t slot) const;

  /// Marks `slot` (< n) dead. False when it already was.
  bool Kill(std::size_t slot);

  /// Raises n to `size` (>= n); the new slots are live.
  void Grow(std::size_t size);

  /// The bitmap over the n slots, or null while nothing is dead.
  const std::uint64_t* mask() const {
    return dead_ > 0 ? bits_->data() : nullptr;
  }

 private:
  std::shared_ptr<std::vector<std::uint64_t>> bits_;
  std::size_t size_ = 0;
  std::size_t dead_ = 0;
};

/// One segment of the mutable tier: a prototype store, the stable id of
/// each slot (ascending) and its `Tombstones`. `MutableLaesa` keeps its
/// base and delta in one each; a shard worker keeps its delta in one.
///
/// Copies share the store, the ids and the bitmap, and a mutation copies
/// whatever part it touches that another copy shares (copy-on-write). An
/// epoch-publishing owner therefore copies the segment and mutates the
/// copy, and readers pinned on the old epoch keep theirs unchanged; a sole
/// owner appends and kills in place.
class MutableSegment {
 public:
  /// Returned by `Locate` for an id no live slot holds.
  static constexpr std::size_t kNone = ~std::size_t{0};

  /// Empty.
  MutableSegment();

  /// Adopts `store` with `ids[slot]` the id of each slot, ascending (one
  /// per slot).
  MutableSegment(PrototypeStore store, std::vector<std::uint64_t> ids);

  std::size_t count() const { return ids_->size(); }
  std::size_t dead() const { return tombs_.dead(); }
  std::size_t live() const { return count() - dead(); }

  const PrototypeStore& store() const { return *store_; }
  std::string_view view(std::size_t slot) const { return store_->view(slot); }
  std::uint64_t id(std::size_t slot) const { return (*ids_)[slot]; }
  bool IsDead(std::size_t slot) const { return tombs_.IsDead(slot); }
  /// The tombstone bitmap over count() slots; null while nothing is dead.
  const std::uint64_t* mask() const { return tombs_.mask(); }

  /// Appends `s` under `id`. Ids arrive ascending, so an id at or below
  /// the tail is a re-sent one: ignored, returns false.
  bool Insert(std::uint64_t id, std::string_view s);

  /// Kills the slot holding `id`. False when no live slot holds it.
  bool Remove(std::uint64_t id);

  /// The slot of live `id` (a binary search over the ids), or kNone when
  /// the id is unknown or removed.
  std::size_t Locate(std::uint64_t id) const;

  /// The one bounded delta scan (`BoundedScan`, search/exhaustive.h): the
  /// live slots in ascending order, each evaluation capped by min(`cap0`,
  /// the k-th incumbent of `best`), hits reported by stable id.
  void Scan(const StringDistance& distance, std::string_view query,
            double cap0, std::size_t k, std::vector<NeighborResult>* best,
            QueryStats* stats) const;

  /// Calls `f(slot)` for every live slot, ascending.
  template <typename F>
  void ForEachLive(F&& f) const {
    for (std::size_t j = 0; j < count(); ++j) {
      if (!IsDead(j)) f(j);
    }
  }

  /// A fresh segment holding slots [from, count()): their strings, ids and
  /// deaths.
  MutableSegment Tail(std::size_t from) const;

 private:
  std::shared_ptr<PrototypeStore> store_;
  std::shared_ptr<std::vector<std::uint64_t>> ids_;
  Tombstones tombs_;
};

}  // namespace cned

#endif  // CNED_SEARCH_MUTABLE_SEGMENT_H_
