#ifndef CNED_COMMON_BINARY_IO_H_
#define CNED_COMMON_BINARY_IO_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mapped_file.h"

namespace cned {

/// Shared on-disk format conventions for the index/store serializers.
///
/// Every serialized object starts with a 64-byte header:
///   bytes  0..7   magic (8 ASCII chars identifying the payload type)
///   bytes  8..11  format version (uint32, little-endian)
///   bytes 12..15  reserved (zero)
///   bytes 16..63  up to six uint64 payload counts (type-specific)
/// followed by raw array sections, each aligned to a 64-byte boundary with
/// zero padding. Integers and doubles are stored in native (little-endian)
/// byte order; the format targets same-architecture serving processes, and
/// the alignment means such a process can mmap the file and point packed
/// arrays straight into it (the convention of usearch-style index files).
///
/// Every file ends with a 64-byte checksum footer written by
/// `BinaryWriter::Finish`:
///   bytes  0..7   footer magic "CNEDCRC1"
///   bytes  8..11  CRC-32 (common/crc32.h) of every byte before the footer
///   bytes 12..63  reserved (zero)
/// One reader serves every format: `MappedReader` below. The copying
/// loaders (`PrototypeStore::LoadBinary`, `ShardedPrototypeStore::
/// LoadBinary`, `Laesa::Load`) run the same section
/// walk as the zero-copy `Map` forms and then copy the sections out. The
/// reader always validates the footer's *presence* (and excludes it from
/// the section space); it verifies the content checksum when its
/// `verify_checksum` flag is set. The copying loaders (they read every
/// byte anyway), the router manifest and the serving workers' shard files
/// always set it. `Map` sets it only under `CNED_SNAPSHOT_VERIFY=1`:
/// eagerly hashing the whole mapping would forfeit the O(validation)
/// zero-copy startup contract.
inline constexpr std::size_t kBinaryAlignment = 64;
inline constexpr std::size_t kBinaryHeaderCounts = 6;
inline constexpr char kBinaryFooterMagic[8] = {'C', 'N', 'E', 'D',
                                               'C', 'R', 'C', '1'};

/// True when `CNED_SNAPSHOT_VERIFY` is set to a truthy value ("1", "true",
/// "on"): mapped snapshot loads then verify the content checksum too.
bool SnapshotVerifyEnabled();

/// Streaming writer with 64-byte section alignment. All methods throw
/// std::runtime_error on I/O failure.
class BinaryWriter {
 public:
  explicit BinaryWriter(const std::string& path);
  ~BinaryWriter();
  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

  /// Writes the standard 64-byte header.
  void Header(const char magic[8], std::uint32_t version,
              const std::uint64_t* counts, std::size_t count_n);

  /// Writes `bytes` raw bytes.
  void Raw(const void* data, std::size_t bytes);

  /// Zero-pads to the next 64-byte boundary (call before each section).
  void Align();

  /// Pads to a 64-byte boundary, appends the checksum footer, then flushes
  /// and closes; throws if any write failed. The destructor closes silently
  /// — call Finish() on the success path.
  void Finish();

  std::size_t offset() const { return offset_; }

 private:
  struct Impl;
  Impl* impl_;
  std::size_t offset_ = 0;
  std::uint32_t crc_ = 0;  // running CRC-32 of every payload byte written
  std::string path_;
};

/// The snapshot reader: a cursor over a `MappedFile` that validates the
/// header/alignment rules and returns in-place pointers into the mapping.
/// Copying loaders copy out of those views; zero-copy loaders keep them.
///
/// Safety contract (the serving tier maps untrusted bytes): every section's
/// cumulative extent — alignment padding plus `count * elem_size`, computed
/// overflow-safely — is range-checked against the actual file length
/// *before* any pointer is formed, so an untrusted header count never sizes
/// an allocation or a view directly, and the section start is verified to
/// be aligned for the element type. Malformed input throws
/// std::runtime_error; no returned pointer ever spans past the end of the
/// mapping.
///
/// Views returned by `Section`/`Array` alias the mapping; callers must keep
/// `file()` alive for as long as they hold them (the view-backed stores
/// retain the shared_ptr).
class MappedReader {
 public:
  /// Reads `file` in place. Validates the checksum footer's presence (the
  /// footer is excluded from the section space) and, when `verify_checksum`
  /// is true, verifies the payload CRC with one sequential pass. Callers
  /// that leave the choice to the environment pass
  /// `SnapshotVerifyEnabled()`. Throws std::invalid_argument on a null
  /// file, std::runtime_error on a missing footer or a mismatch.
  MappedReader(std::shared_ptr<MappedFile> file, bool verify_checksum);

  /// Skips to the next 64-byte boundary and validates the standard 64-byte
  /// header: magic must match, version must equal `expected_version`
  /// (mismatch message names both). Returns the payload counts.
  std::vector<std::uint64_t> Header(const char magic[8],
                                    std::uint32_t expected_version);

  /// Version-range form for evolving formats: accepts any version in
  /// [min_version, max_version], storing the file's actual version through
  /// `version_out` (may be null). Same errors otherwise.
  std::vector<std::uint64_t> Header(const char magic[8],
                                    std::uint32_t min_version,
                                    std::uint32_t max_version,
                                    std::uint32_t* version_out);

  /// Skips to the next 64-byte boundary, range-checks the section extent
  /// against the remaining file length, verifies element alignment, then
  /// returns the in-place section pointer and advances past it.
  const void* Section(std::uint64_t count, std::size_t elem_size);

  /// Typed form of `Section`.
  template <typename T>
  const T* Array(std::uint64_t count) {
    return static_cast<const T*>(Section(count, sizeof(T)));
  }

  /// The mapping the returned views alias.
  const std::shared_ptr<MappedFile>& file() const { return file_; }

 private:
  std::size_t remaining() const { return size_ - offset_; }

  std::shared_ptr<MappedFile> file_;
  const char* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t offset_ = 0;
  std::string path_;
};

}  // namespace cned

#endif  // CNED_COMMON_BINARY_IO_H_
