#include "datasets/prototype_store.h"

#include <limits>
#include <stdexcept>

namespace cned {

namespace {
constexpr std::size_t kArenaMax = std::numeric_limits<std::uint32_t>::max();
}  // namespace

PrototypeStore::PrototypeStore(const std::vector<std::string>& strings) {
  std::size_t total = 0;
  for (const auto& s : strings) {
    // Overflow-safe: the sum itself could wrap std::size_t on 32-bit, and
    // a wrapped total would under-reserve and then mis-report the arena
    // cap. Any input past the 32-bit cap fails here, before Reserve.
    if (s.size() > kArenaMax - total) {
      throw std::length_error(
          "PrototypeStore: arena exceeds 32-bit offset range");
    }
    total += s.size();
  }
  Reserve(strings.size(), total);
  for (const auto& s : strings) Add(s);
}

void PrototypeStore::Reserve(std::size_t count, std::size_t total_chars) {
  // Enforce the same cap Add does: reserving past it would allocate
  // gigabytes for a store that can never legally fill them.
  if (total_chars > kArenaMax) {
    throw std::length_error(
        "PrototypeStore::Reserve: arena exceeds 32-bit offset range");
  }
  offsets_.reserve(count);
  lengths_.reserve(count);
  arena_.reserve(total_chars);
}

void PrototypeStore::Add(std::string_view s) {
  if (mapping_ != nullptr) {
    throw std::logic_error(
        "PrototypeStore::Add: store is a read-only mapped view");
  }
  if (s.size() > kArenaMax || arena_.size() > kArenaMax - s.size()) {
    throw std::length_error(
        "PrototypeStore: arena exceeds 32-bit offset range");
  }
  offsets_.push_back(static_cast<std::uint32_t>(arena_.size()));
  lengths_.push_back(static_cast<std::uint32_t>(s.size()));
  arena_.insert(arena_.end(), s.begin(), s.end());
}

std::vector<std::string> PrototypeStore::ToStrings() const {
  std::vector<std::string> out;
  out.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) out.emplace_back(view(i));
  return out;
}

namespace {
constexpr char kStoreMagic[8] = {'C', 'N', 'E', 'D', 'P', 'S', 'T', '1'};
constexpr std::uint32_t kStoreVersion = 1;
}  // namespace

void PrototypeStore::SaveBinary(BinaryWriter& writer) const {
  // Writes through the view accessors, so a mapped store re-snapshots
  // byte-identically without materialising owned copies.
  const std::uint64_t counts[2] = {size(), arena_bytes()};
  writer.Align();
  writer.Header(kStoreMagic, kStoreVersion, counts, 2);
  writer.Align();
  writer.Raw(offsets_data(), size() * sizeof(std::uint32_t));
  writer.Align();
  writer.Raw(lengths_data(), size() * sizeof(std::uint32_t));
  writer.Align();
  writer.Raw(arena_data(), arena_bytes());
}

void PrototypeStore::SaveBinary(const std::string& path) const {
  BinaryWriter writer(path);
  SaveBinary(writer);
  writer.Finish();
}

PrototypeStore PrototypeStore::Read(MappedReader& reader, bool copy,
                                    const std::string& who) {
  const auto counts = reader.Header(kStoreMagic, kStoreVersion);
  const std::uint64_t n = counts[0];
  const std::uint64_t arena_bytes = counts[1];
  if (arena_bytes > kArenaMax) {
    throw std::runtime_error(who + ": arena exceeds 32-bit offset range");
  }
  // Array() range-checks each cumulative extent against the file length
  // before forming the view — a corrupt count fails as "truncated file",
  // not as a huge allocation.
  MappedView view;
  view.offsets = reader.Array<std::uint32_t>(n);
  view.lengths = reader.Array<std::uint32_t>(n);
  view.arena = reader.Array<char>(arena_bytes);
  view.size = static_cast<std::size_t>(n);
  view.arena_bytes = static_cast<std::size_t>(arena_bytes);
  for (std::size_t i = 0; i < view.size; ++i) {
    if (static_cast<std::uint64_t>(view.offsets[i]) + view.lengths[i] >
        arena_bytes) {
      throw std::runtime_error(who + ": string section out of arena bounds");
    }
  }
  PrototypeStore store;
  if (copy) {
    store.offsets_.assign(view.offsets, view.offsets + view.size);
    store.lengths_.assign(view.lengths, view.lengths + view.size);
    store.arena_.assign(view.arena, view.arena + view.arena_bytes);
  } else {
    store.map_ = view;
    store.mapping_ = reader.file();
  }
  return store;
}

PrototypeStore PrototypeStore::LoadBinary(const std::string& path) {
  MappedReader reader(MappedFile::Open(path), /*verify_checksum=*/true);
  return Read(reader, /*copy=*/true, "PrototypeStore::LoadBinary");
}

PrototypeStore PrototypeStore::Map(const std::string& path) {
  MappedReader reader(MappedFile::Open(path), SnapshotVerifyEnabled());
  return Read(reader, /*copy=*/false, "PrototypeStore::Map");
}

}  // namespace cned
