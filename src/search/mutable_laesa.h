#ifndef CNED_SEARCH_MUTABLE_LAESA_H_
#define CNED_SEARCH_MUTABLE_LAESA_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "datasets/prototype_store.h"
#include "distances/distance.h"
#include "search/laesa.h"
#include "search/mutable_segment.h"
#include "search/nn_searcher.h"
#include "search/table_quant.h"

namespace cned {

/// The live-mutability tier: an LSM-style mutable index in front of the
/// immutable LAESA machinery, so inserts and deletes land while queries are
/// in flight (the add/search + view() serving model of usearch, see
/// ROADMAP.md).
///
/// Structure — two `MutableSegment`s (mutable_segment.h) behind one
/// epoch-numbered immutable `State`:
///
///   * **base**: a frozen store + `Laesa` (owned or mapped from a
///     snapshot). Never rewritten in place; deletes kill a slot in the
///     segment's `Tombstones`, whose bitmap the sweep masks as +inf bounds
///     before any visit (`Laesa::KNearest` with a tombstone bitmap), so a
///     deleted prototype can never surface as a neighbour at any
///     `table_precision`.
///   * **delta**: everything inserted since the last merge, with its own
///     tombstones. Always queried by the segment's one bounded exhaustive
///     scan (`MutableSegment::Scan`), bounded by the merged incumbent; a
///     shard worker's `ShardReplica::DeltaScan` is the same scan. It has no
///     index, so an insert evaluates no distance; the merge is what keeps
///     the delta, and so the scan, short.
///
/// Every prototype carries a stable 64-bit id, assigned monotonically by
/// `Insert` and never reused; results report ids, not slots. Base slots
/// are kept in ascending-id order and the delta always holds the newest
/// ids, so all base ids < all delta ids — which lets the
/// strict-improvement top-k merge resolve cross-segment distance ties
/// toward the base (older-id) side. Distances are always exact; as
/// everywhere in the LAESA family, equal-distance tie *winners* within a
/// segment follow the sweep's visiting order (an admissible pruner may
/// eliminate an equal-distance candidate by its lower bound without ever
/// evaluating it).
///
/// Concurrency — single-writer, lock-free readers: mutators serialize on an
/// internal mutex, build a fresh `State` (copy-on-write of only the parts
/// they touch) and publish it with `std::atomic_store` on the shared_ptr.
/// Readers pin the current state with `std::atomic_load` and keep their
/// pinned segments for the whole query, so a concurrent publish (or a
/// merge's epoch swap) never invalidates an in-flight query and no query
/// ever fails during a swap. Readers never block writers and vice versa.
///
/// Merge — `MergeNow` pins the current epoch and rewrites base+delta
/// (minus tombstones) into a fresh base on the calling thread, off the
/// writer lock, then swaps it in: entries removed *during* the merge become
/// tombstones on the new base, entries inserted during it stay in the
/// (re-packed) delta. Readers and writers on other threads proceed
/// throughout. With a snapshot directory the merge output goes through
/// temp-file + rename, so a crash mid-merge leaves the previous snapshot
/// fully valid — the only residue is a stale `*.tmp` pair.
///
/// Differential contract: at every point, Nearest/KNearest return exactly
/// the distance profile a from-scratch rebuild over the live set would
/// return (and the same neighbours wherever distances are unique); two
/// instances fed the identical op sequence agree bit for bit, QueryStats
/// included; and after a merge the index is bit-identical — stats included
/// — to one built from the live set directly (tests/mutable_laesa_test.cc).
class MutableLaesa final : public NearestNeighborSearcher {
 public:
  struct Options {
    // Explicit ctor instead of member initializers: the defaults must be
    // usable in this class's own default arguments (GCC defers NSDMIs of a
    // nested class past the enclosing class's end).
    Options()
        : num_pivots(8), table_precision(DefaultTablePrecision()) {}
    /// Pivots for the base index (built by the ctor and by every merge).
    std::size_t num_pivots;
    /// Pivot-table storage precision for the base index.
    TablePrecision table_precision;
  };

  /// Starts empty (delta only until the first merge).
  explicit MutableLaesa(StringDistancePtr distance, Options options = Options());

  /// Starts from a frozen base set; ids 0..base.size()-1 in order.
  MutableLaesa(const std::vector<std::string>& base,
               StringDistancePtr distance, Options options = Options());

  /// Serves a snapshot written by a merge (`MergeNow(dir)`): maps the
  /// store and index zero-copy. Ids restart at 0..n-1 — the snapshot is a
  /// compacted world, stable within the new instance's lifetime. This is
  /// the tier's restart path: after a crash, the last merge's snapshot is
  /// what a new process serves.
  static MutableLaesa FromSnapshot(const std::string& dir,
                                   StringDistancePtr distance,
                                   Options options = Options());

  MutableLaesa(const MutableLaesa&) = delete;
  MutableLaesa& operator=(const MutableLaesa&) = delete;

  /// Appends one prototype; returns its stable id. O(delta) copy-on-write —
  /// the merge is what keeps the delta (and thus this cost) bounded.
  std::uint64_t Insert(std::string_view s);

  /// Tombstones `id`. Returns false when the id is unknown or already
  /// removed. O(bitmap words).
  bool Remove(std::uint64_t id);

  /// True when `id` is present and live.
  bool Contains(std::uint64_t id) const;

  /// The live string behind `id`; throws std::out_of_range when unknown or
  /// removed. (Copies: the pinned segment may be swapped out by a merge
  /// after return.)
  std::string GetString(std::uint64_t id) const;

  /// Live prototypes (inserted and not removed).
  std::size_t size() const override;
  /// The next id `Insert` would assign (== total ever inserted + base).
  std::uint64_t next_id() const;
  /// Publish counter: bumps on every mutation and every merge swap.
  std::uint64_t epoch() const;
  std::size_t delta_size() const;       ///< live delta entries
  std::size_t tombstone_count() const;  ///< dead entries not yet merged out

  /// The k nearest live prototypes by stable id, closest first; exact
  /// distances, with cross-segment distance ties resolving to the base
  /// (lower-id) segment. Empty when the index is (so the inherited
  /// `Nearest` throws std::out_of_range). Safe to call concurrently with
  /// mutators.
  std::vector<NeighborResult> KNearest(
      std::string_view query, std::size_t k,
      QueryStats* stats = nullptr) const override;

  /// Merges the current delta+tombstones into a fresh base on the calling
  /// thread. Returns false when another merge is running or there is
  /// nothing to merge. With a non-empty `snapshot_dir` the merged
  /// store+index are also written there (temp-file + rename) and the new
  /// base serves mapped from those files.
  bool MergeNow(const std::string& snapshot_dir = std::string());

  /// Non-empty after a merge that failed (snapshot I/O error); the state
  /// is then unchanged. Cleared by the next successful merge.
  std::string merge_error() const;

  static std::string SnapshotStorePath(const std::string& dir);
  static std::string SnapshotIndexPath(const std::string& dir);

 private:
  // FromSnapshot builds in-place through this tag (the class holds a mutex,
  // so it is immovable; C++17 prvalue return elides the copy).
  struct SnapshotTag {};
  MutableLaesa(SnapshotTag, const std::string& dir, StringDistancePtr distance,
               Options options);

  /// The immutable world a reader pins. Everything reachable from here is
  /// frozen; mutators publish whole new States.
  struct State {
    MutableSegment base;
    std::shared_ptr<const Laesa> base_index;  // null iff base empty
    MutableSegment delta;
    std::uint64_t next_id = 0;
    std::uint64_t epoch = 0;
  };

  /// The segment of `st` holding live `id` and its slot there; null when
  /// neither does.
  static const MutableSegment* Locate(const State& st, std::uint64_t id,
                                      std::size_t* slot);

  std::shared_ptr<const State> Pin() const {
    return std::atomic_load(&state_);
  }
  void Publish(std::shared_ptr<const State> next) {
    std::atomic_store(&state_,
                      std::shared_ptr<const State>(std::move(next)));
  }

  StringDistancePtr distance_;
  Options options_;
  std::shared_ptr<const State> state_;  // accessed via atomic_load/store

  /// Serializes mutators and merge bookkeeping; never held while querying.
  mutable std::mutex write_mu_;
  bool merging_ = false;
  std::string merge_error_;
};

}  // namespace cned

#endif  // CNED_SEARCH_MUTABLE_LAESA_H_
