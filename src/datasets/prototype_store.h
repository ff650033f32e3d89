#ifndef CNED_DATASETS_PROTOTYPE_STORE_H_
#define CNED_DATASETS_PROTOTYPE_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/binary_io.h"

namespace cned {

/// Flat, cache-friendly storage for a prototype (or query) set.
///
/// `std::vector<std::string>` scatters every string across the heap: each
/// candidate visited by a search index costs a pointer chase, and the
/// lengths the elimination sweeps need live behind those same pointers. The
/// store instead packs all characters into one contiguous arena and keeps
/// 32-bit offset/length arrays alongside, so
///   * `view(i)` is zero-copy (a `string_view` into the arena),
///   * `lengths_data()` exposes the lengths as one flat array the LAESA
///     elimination sweep (and the length-difference "free pivot") can scan
///     without touching the strings, and
///   * iterating candidates in index order walks the arena forward —
///     hardware-prefetcher friendly, like the packed vector arenas of
///     usearch/pg_embedding.
///
/// 32-bit offsets cap the arena at 4 GiB of characters (hundreds of
/// millions of dictionary words); `Add` throws `std::length_error` beyond
/// that. Views returned by `view`/`operator[]` are invalidated by `Add`
/// (the arena may reallocate) — build the store first, then index it.
///
/// Every read goes through span-like views (`const char* arena`,
/// `const uint32_t* offsets/lengths`) that are backed either by the owned
/// vectors (the build path — unchanged behaviour) or, after `Map`, by
/// sections of a memory-mapped snapshot used in place: a serving process
/// pays O(validation) startup instead of O(store) copying, and the pages
/// are shared through the kernel page cache with every other process
/// mapping the same file. Mapped stores are immutable — `Add` throws.
class PrototypeStore {
 public:
  PrototypeStore() = default;

  /// Packs `strings` into the arena (one copy, then zero-copy reads).
  explicit PrototypeStore(const std::vector<std::string>& strings);

  /// Appends one string. Invalidates previously returned views. Throws
  /// std::logic_error on a mapped store (the mapping is read-only).
  void Add(std::string_view s);

  /// Pre-sizes the arrays (`total_chars` may be 0 when unknown). Throws
  /// std::length_error if `total_chars` exceeds the 32-bit arena cap that
  /// `Add` enforces — reserving past it could never be filled legally.
  void Reserve(std::size_t count, std::size_t total_chars = 0);

  std::size_t size() const { return mapping_ ? map_.size : lengths_.size(); }
  bool empty() const { return size() == 0; }

  /// Zero-copy view of the i-th string.
  std::string_view view(std::size_t i) const {
    return {arena_data() + offsets_data()[i], lengths_data()[i]};
  }
  std::string_view operator[](std::size_t i) const { return view(i); }

  std::uint32_t length(std::size_t i) const { return lengths_data()[i]; }

  /// Flat length array, aligned with indices — the SoA side of the store.
  const std::uint32_t* lengths_data() const {
    return mapping_ ? map_.lengths : lengths_.data();
  }

  /// Flat offset array, aligned with indices.
  const std::uint32_t* offsets_data() const {
    return mapping_ ? map_.offsets : offsets_.data();
  }

  /// Raw arena (diagnostics, serialisation).
  const char* arena_data() const {
    return mapping_ ? map_.arena : arena_.data();
  }
  std::size_t arena_bytes() const {
    return mapping_ ? map_.arena_bytes : arena_.size();
  }

  /// True when the views alias a mapped snapshot instead of owned vectors.
  bool mapped() const { return mapping_ != nullptr; }

  /// Materialises owning strings (convenience for tests and tooling).
  std::vector<std::string> ToStrings() const;

  /// Writes the store to `path` in the shared binary format (versioned
  /// 64-byte header, then offset/length/arena sections each 64-byte
  /// aligned — see common/binary_io.h). A serving process can mmap the file
  /// and use the sections in place.
  void SaveBinary(const std::string& path) const;

  /// Reads a store written by `SaveBinary` into owned vectors. Throws
  /// std::runtime_error on bad magic, version mismatch, checksum mismatch,
  /// truncation or inconsistent sections. It is `Map`'s walk with the
  /// checksum always verified and the sections then copied out, so it reads
  /// through a read-only shared mapping of the file until it returns. Like
  /// `Map`, it must not race a writer to the same path: a concurrent
  /// `SaveBinary` truncates the file and can raise `SIGBUS`.
  static PrototypeStore LoadBinary(const std::string& path);

  /// Stream form used to embed a store section inside a larger file
  /// (the sharded store serializer).
  void SaveBinary(BinaryWriter& writer) const;

  /// Zero-copy load: maps a file written by `SaveBinary` and points the
  /// views at its sections in place — no section is copied. Header, section
  /// extents and per-string bounds are fully validated (same errors as
  /// `LoadBinary`); the payload checksum is verified only under
  /// `CNED_SNAPSHOT_VERIFY=1`. The store co-owns the mapping, so views stay
  /// valid for the store's lifetime, across copies and moves.
  static PrototypeStore Map(const std::string& path);

  /// Cursor form of both loaders: reads one store section at `reader`'s
  /// position (a standalone file, or a section embedded in the sharded
  /// store snapshot). Every extent is checked before any view is formed or
  /// any vector is sized. With `copy` the sections are copied into owned
  /// vectors; otherwise the views point into the mapping and the store
  /// retains `reader.file()`. `who` prefixes the error messages.
  static PrototypeStore Read(MappedReader& reader, bool copy,
                             const std::string& who);

 private:
  std::vector<char> arena_;
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> lengths_;

  /// Views into `mapping_` when mapped; the owned vectors stay empty then.
  /// Copying a mapped store copies the views and shares the mapping.
  struct MappedView {
    const char* arena = nullptr;
    const std::uint32_t* offsets = nullptr;
    const std::uint32_t* lengths = nullptr;
    std::size_t size = 0;
    std::size_t arena_bytes = 0;
  };
  MappedView map_;
  std::shared_ptr<MappedFile> mapping_;
};

/// Constructor adapter every search index takes its prototypes through.
///
/// Binds either
///   * an existing `PrototypeStore` (borrowed — the caller keeps it alive,
///     zero copies; the production path, one store shared by many indexes
///     and the batch engine), or
///   * a `std::vector<std::string>` (packed once into an owned store; the
///     convenience path that keeps existing call sites source-compatible
///     and removes their lifetime hazard, since the index then owns the
///     arena).
///
/// Copy/move just copy the pointer + shared ownership, so indexes holding a
/// `PrototypeStoreRef` keep their default special members.
class PrototypeStoreRef {
 public:
  /// Borrows `store`; the caller keeps it alive while any index uses it.
  PrototypeStoreRef(const PrototypeStore& store)  // NOLINT(runtime/explicit)
      : store_(&store) {}

  /// A temporary store would die before the index that borrows it.
  PrototypeStoreRef(PrototypeStore&&) = delete;

  /// Packs `strings` into an owned store (one copy at construction).
  PrototypeStoreRef(  // NOLINT(runtime/explicit)
      const std::vector<std::string>& strings)
      : owned_(std::make_shared<PrototypeStore>(strings)),
        store_(owned_.get()) {}

  const PrototypeStore& get() const { return *store_; }
  const PrototypeStore& operator*() const { return *store_; }
  const PrototypeStore* operator->() const { return store_; }

 private:
  std::shared_ptr<const PrototypeStore> owned_;  // null when borrowed
  const PrototypeStore* store_;
};

}  // namespace cned

#endif  // CNED_DATASETS_PROTOTYPE_STORE_H_
