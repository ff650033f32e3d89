#include "datasets/sharded_prototype_store.h"

#include <algorithm>
#include <stdexcept>

namespace cned {
namespace {

constexpr char kShardedMagic[8] = {'C', 'N', 'E', 'D', 'S', 'P', 'S', '1'};
constexpr std::uint32_t kShardedVersion = 1;

}  // namespace

ShardedPrototypeStore::ShardedPrototypeStore(
    const std::vector<std::string>& strings, std::size_t shard_count,
    std::vector<int> labels)
    : labels_(std::move(labels)), total_(strings.size()) {
  if (shard_count == 0) {
    throw std::invalid_argument(
        "ShardedPrototypeStore: need at least one shard");
  }
  if (!labels_.empty() && labels_.size() != strings.size()) {
    throw std::invalid_argument(
        "ShardedPrototypeStore: labels/strings size mismatch");
  }
  shards_.resize(shard_count);
  bases_.resize(shard_count + 1);
  for (std::size_t s = 0; s <= shard_count; ++s) {
    bases_[s] = s * total_ / shard_count;
  }
  for (std::size_t s = 0; s < shard_count; ++s) {
    const std::size_t n = bases_[s + 1] - bases_[s];
    std::size_t chars = 0;
    for (std::size_t j = 0; j < n; ++j) chars += strings[bases_[s] + j].size();
    shards_[s].Reserve(n, chars);
    for (std::size_t j = 0; j < n; ++j) shards_[s].Add(strings[bases_[s] + j]);
  }
}

ShardedPrototypeStore::ShardedPrototypeStore(const PrototypeStore& store,
                                             std::size_t shard_count,
                                             std::vector<int> labels)
    : ShardedPrototypeStore(store.ToStrings(), shard_count,
                            std::move(labels)) {}

std::size_t ShardedPrototypeStore::ShardOf(std::size_t i) const {
  // bases_ is sorted; the owning shard is the last base <= i. Empty shards
  // share a base with their successor, and upper_bound lands past all of
  // them — on the (unique) shard that actually contains i.
  const auto it = std::upper_bound(bases_.begin(), bases_.end(), i);
  return static_cast<std::size_t>(it - bases_.begin()) - 1;
}

void ShardedPrototypeStore::SaveBinary(const std::string& path) const {
  BinaryWriter writer(path);
  const std::uint64_t counts[3] = {shards_.size(), total_,
                                   has_labels() ? 1u : 0u};
  writer.Header(kShardedMagic, kShardedVersion, counts, 3);
  std::vector<std::uint64_t> sizes(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) sizes[s] = shards_[s].size();
  writer.Align();
  writer.Raw(sizes.data(), sizes.size() * sizeof(std::uint64_t));
  if (has_labels()) {
    static_assert(sizeof(int) == 4, "32-bit labels expected");
    writer.Align();
    writer.Raw(labels_.data(), labels_.size() * sizeof(int));
  }
  for (const PrototypeStore& s : shards_) s.SaveBinary(writer);
  writer.Finish();
}

ShardedPrototypeStore ShardedPrototypeStore::Open(const std::string& path,
                                                  bool copy, const char* who) {
  // LoadBinary copies every section, so it always verifies the checksum;
  // Map leaves that to CNED_SNAPSHOT_VERIFY (binary_io.h).
  MappedReader reader(MappedFile::Open(path),
                      copy || SnapshotVerifyEnabled());
  const auto counts = reader.Header(kShardedMagic, kShardedVersion);
  const std::uint64_t shard_count = counts[0];
  const std::uint64_t total = counts[1];
  const bool has_labels = counts[2] != 0;
  if (shard_count == 0) {
    throw std::runtime_error(std::string(who) + ": zero shard count");
  }
  // Array() bounds-checks every cumulative extent before a view is formed
  // or a vector is sized from it.
  const std::uint64_t* sizes = reader.Array<std::uint64_t>(shard_count);
  ShardedPrototypeStore store;
  store.total_ = total;
  if (has_labels) {
    static_assert(sizeof(int) == 4, "32-bit labels expected");
    const int* labels = reader.Array<int>(total);
    store.labels_.assign(labels, labels + total);
  }
  store.shards_.reserve(shard_count);
  std::uint64_t sum = 0;
  for (std::uint64_t s = 0; s < shard_count; ++s) {
    store.shards_.push_back(PrototypeStore::Read(reader, copy, who));
    if (store.shards_.back().size() != sizes[s]) {
      throw std::runtime_error(std::string(who) + ": shard size mismatch");
    }
    sum += sizes[s];
  }
  if (sum != total) {
    throw std::runtime_error(std::string(who) +
                             ": shard sizes do not sum to total");
  }
  store.InitBases();
  return store;
}

ShardedPrototypeStore ShardedPrototypeStore::LoadBinary(
    const std::string& path) {
  return Open(path, /*copy=*/true, "ShardedPrototypeStore::LoadBinary");
}

ShardedPrototypeStore ShardedPrototypeStore::Map(const std::string& path) {
  return Open(path, /*copy=*/false, "ShardedPrototypeStore::Map");
}

void ShardedPrototypeStore::InitBases() {
  bases_.resize(shards_.size() + 1);
  bases_[0] = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    bases_[s + 1] = bases_[s] + shards_[s].size();
  }
}

}  // namespace cned
