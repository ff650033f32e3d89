#ifndef CNED_DATASETS_SHARDED_PROTOTYPE_STORE_H_
#define CNED_DATASETS_SHARDED_PROTOTYPE_STORE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/binary_io.h"
#include "datasets/prototype_store.h"

namespace cned {

/// A prototype set partitioned into S contiguous shards, each its own
/// `PrototypeStore` (one arena + offset/length arrays per shard) with its
/// own slice of the class labels.
///
/// One flat arena caps out twice: the 32-bit offsets bound it at 4 GiB of
/// characters, and a single LAESA pivot table over it is one giant
/// allocation every query touches. Sharding splits both — each shard is an
/// independently packed, independently mmap-able unit a serving tier can
/// build, load and search in parallel — while the *global index space*
/// stays intact: shard s covers the contiguous global range
/// [shard_base(s), shard_base(s) + shard(s).size()), so global prototype
/// indices (the currency of `NeighborResult`, labels and the classifier)
/// mean the same thing they mean for a flat store.
///
/// Partitioning is deterministic: shard s gets global indices
/// [floor(s*N/S), floor((s+1)*N/S)) in original order, so a
/// `ShardedPrototypeStore` built from the same strings as a flat
/// `PrototypeStore` enumerates identical views at identical global indices.
class ShardedPrototypeStore {
 public:
  ShardedPrototypeStore() = default;

  /// Partitions `strings` (in order) into `shard_count` contiguous shards.
  /// `labels`, when non-empty, must have one entry per string; each shard
  /// then owns the matching slice. Throws std::invalid_argument on
  /// shard_count == 0 or a label/string size mismatch.
  ShardedPrototypeStore(const std::vector<std::string>& strings,
                        std::size_t shard_count,
                        std::vector<int> labels = {});

  /// Same, re-packing an existing flat store (one copy).
  ShardedPrototypeStore(const PrototypeStore& store, std::size_t shard_count,
                        std::vector<int> labels = {});

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t size() const { return total_; }
  bool empty() const { return total_ == 0; }

  const PrototypeStore& shard(std::size_t s) const { return shards_[s]; }

  /// Global index of shard s's first prototype.
  std::size_t shard_base(std::size_t s) const { return bases_[s]; }

  /// The shard holding global index `i`.
  std::size_t ShardOf(std::size_t i) const;

  /// Zero-copy view of the prototype at global index `i`.
  std::string_view view(std::size_t i) const {
    const std::size_t s = ShardOf(i);
    return shards_[s].view(i - bases_[s]);
  }
  std::string_view operator[](std::size_t i) const { return view(i); }

  std::uint32_t length(std::size_t i) const {
    const std::size_t s = ShardOf(i);
    return shards_[s].length(i - bases_[s]);
  }

  bool has_labels() const { return !labels_.empty(); }
  /// Global label array (empty when unlabeled).
  const std::vector<int>& labels() const { return labels_; }
  /// Shard s's slice of the labels (size shard(s).size()); null when
  /// unlabeled.
  const int* shard_labels(std::size_t s) const {
    return has_labels() ? labels_.data() + bases_[s] : nullptr;
  }

  /// Writes shard count, labels and every per-shard section to `path` in
  /// the shared 64-byte-aligned binary format (common/binary_io.h).
  void SaveBinary(const std::string& path) const;

  /// Reads a store written by `SaveBinary` into owned vectors. Throws
  /// std::runtime_error on bad magic, version mismatch, checksum mismatch,
  /// truncation or inconsistent sections. It is `Map`'s walk with the
  /// checksum always verified and every shard then copied out, so it reads
  /// through a read-only shared mapping of the file until it returns. Like
  /// `Map`, it must not race a writer to the same path: a concurrent
  /// `SaveBinary` truncates the file and can raise `SIGBUS`.
  static ShardedPrototypeStore LoadBinary(const std::string& path);

  /// Zero-copy load: maps a snapshot written by `SaveBinary` and backs
  /// every shard's arena/offset/length views by the file sections in place
  /// (each shard co-owns the one mapping). Labels are the single copied
  /// section — they are returned as a `std::vector<int>&` by `labels()` and
  /// are 4 bytes per prototype, negligible next to the arenas. Validation
  /// matches `LoadBinary`; the payload checksum is verified only under
  /// `CNED_SNAPSHOT_VERIFY=1`.
  static ShardedPrototypeStore Map(const std::string& path);

  /// True when the shard views alias a mapped snapshot.
  bool mapped() const { return !shards_.empty() && shards_[0].mapped(); }

 private:
  /// The one section walk behind both loaders: `Map` when `copy` is false,
  /// `LoadBinary` when it is true. `who` prefixes the error messages.
  static ShardedPrototypeStore Open(const std::string& path, bool copy,
                                    const char* who);

  void InitBases();

  std::vector<PrototypeStore> shards_;
  std::vector<std::size_t> bases_;  // bases_[s] = first global index; size S+1
  std::vector<int> labels_;         // global labels, empty when unlabeled
  std::size_t total_ = 0;
};

}  // namespace cned

#endif  // CNED_DATASETS_SHARDED_PROTOTYPE_STORE_H_
