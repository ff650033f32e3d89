#ifndef CNED_COMMON_MAPPED_FILE_H_
#define CNED_COMMON_MAPPED_FILE_H_

#include <cstddef>
#include <memory>
#include <string>

namespace cned {

/// Read-only RAII memory mapping of a whole file.
///
/// The zero-copy half of the serving tier: a snapshot written in the
/// 64-byte-aligned binary format (common/binary_io.h) is mapped once and
/// its sections are used in place — startup cost is O(1) in the index size
/// instead of the O(index) copy of the copying loaders, and the pages
/// live in the kernel page cache, shared across every serving process that
/// maps the same file (the usearch / pg_embedding serving model).
///
/// Instances are created through `Open` and handed around as
/// `std::shared_ptr<MappedFile>`: every store or index holding views into
/// the mapping co-owns it, so the mapping outlives all views regardless of
/// destruction order. The mapping is immutable (PROT_READ) — writing
/// through a view is undefined, which is exactly the contract the
/// view-backed stores expose (`const char*` / `const double*` only).
class MappedFile {
 public:
  /// Maps `path` read-only. Throws std::runtime_error when the file cannot
  /// be opened, stat'ed or mapped. An empty file maps to a null, zero-size
  /// view (callers see it as truncated input).
  static std::shared_ptr<MappedFile> Open(const std::string& path);

  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Base of the mapping. Page-aligned, so every 64-byte-aligned file
  /// offset is also 64-byte aligned in memory — the property the in-place
  /// `double`/`uint64` section views rely on.
  const char* data() const { return data_; }
  std::size_t size() const { return size_; }
  const std::string& path() const { return path_; }

 private:
  MappedFile() = default;

  const char* data_ = nullptr;  // non-POSIX builds alias a heap buffer
  std::size_t size_ = 0;
  std::string path_;
};

}  // namespace cned

#endif  // CNED_COMMON_MAPPED_FILE_H_
