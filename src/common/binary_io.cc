#include "common/binary_io.h"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "common/crc32.h"

namespace cned {
namespace {

constexpr char kZeros[kBinaryAlignment] = {};

/// Checks the last 64 bytes of a payload-plus-footer image: returns the
/// payload size (total minus footer) and the stored CRC, throwing when the
/// file is too short to hold a footer or the footer magic is absent. The
/// footer always occupies exactly the final 64 bytes, so truncating a file
/// anywhere destroys it — truncation is caught here even when the payload
/// counts would still "fit".
std::size_t CheckFooter(const char* data, std::size_t size,
                        std::uint32_t* stored_crc, const std::string& path) {
  if (size < kBinaryAlignment) {
    throw std::runtime_error(
        "binary_io: missing checksum footer (" + path + ")");
  }
  const char* footer = data + size - kBinaryAlignment;
  if (std::memcmp(footer, kBinaryFooterMagic, 8) != 0) {
    throw std::runtime_error(
        "binary_io: missing checksum footer (" + path + ")");
  }
  std::memcpy(stored_crc, footer + 8, sizeof(*stored_crc));
  return size - kBinaryAlignment;
}

std::string Describe(const std::string& path, const char* what) {
  return "binary_io: " + std::string(what) + " (" + path + ")";
}

/// Zero padding between the cursor and the next 64-byte boundary.
std::size_t PadTo(std::size_t offset) {
  const std::size_t rem = offset % kBinaryAlignment;
  return rem == 0 ? 0 : kBinaryAlignment - rem;
}

}  // namespace

bool SnapshotVerifyEnabled() {
  const char* env = std::getenv("CNED_SNAPSHOT_VERIFY");
  if (env == nullptr) return false;
  const std::string v(env);
  return v == "1" || v == "true" || v == "on";
}

struct BinaryWriter::Impl {
  std::ofstream out;
};

BinaryWriter::BinaryWriter(const std::string& path)
    : impl_(new Impl), path_(path) {
  impl_->out.open(path, std::ios::binary | std::ios::trunc);
  if (!impl_->out) {
    delete impl_;
    impl_ = nullptr;
    throw std::runtime_error(Describe(path, "cannot open for writing"));
  }
}

BinaryWriter::~BinaryWriter() { delete impl_; }

void BinaryWriter::Header(const char magic[8], std::uint32_t version,
                          const std::uint64_t* counts, std::size_t count_n) {
  if (count_n > kBinaryHeaderCounts) {
    throw std::invalid_argument(Describe(path_, "too many header counts"));
  }
  char header[kBinaryAlignment] = {};
  std::memcpy(header, magic, 8);
  std::memcpy(header + 8, &version, sizeof(version));
  std::memcpy(header + 16, counts, count_n * sizeof(std::uint64_t));
  Raw(header, sizeof(header));
}

void BinaryWriter::Raw(const void* data, std::size_t bytes) {
  if (bytes == 0) return;  // empty sections pass a null data pointer
  impl_->out.write(static_cast<const char*>(data),
                   static_cast<std::streamsize>(bytes));
  if (!impl_->out) throw std::runtime_error(Describe(path_, "write failed"));
  crc_ = Crc32(data, bytes, crc_);
  offset_ += bytes;
}

void BinaryWriter::Align() {
  const std::size_t rem = offset_ % kBinaryAlignment;
  if (rem != 0) Raw(kZeros, kBinaryAlignment - rem);
}

void BinaryWriter::Finish() {
  // Pad the payload to a whole number of alignment blocks, then append the
  // footer. The footer bytes are excluded from the CRC they carry, and are
  // written through the stream directly so `crc_`/`offset_` keep describing
  // the payload alone.
  Align();
  char footer[kBinaryAlignment] = {};
  std::memcpy(footer, kBinaryFooterMagic, 8);
  std::memcpy(footer + 8, &crc_, sizeof(crc_));
  impl_->out.write(footer, sizeof(footer));
  impl_->out.flush();
  impl_->out.close();
  if (impl_->out.fail()) {
    throw std::runtime_error(Describe(path_, "flush/close failed"));
  }
}

MappedReader::MappedReader(std::shared_ptr<MappedFile> file,
                           bool verify_checksum)
    : file_(std::move(file)) {
  if (file_ == nullptr) {
    throw std::invalid_argument("binary_io: MappedReader needs a file");
  }
  data_ = file_->data();
  size_ = file_->size();
  path_ = file_->path();
  // Footer presence is always validated (and the footer removed from the
  // section space, so no view can alias it); hashing the payload is the
  // caller's choice — an eager whole-file pass would defeat the
  // O(validation) startup the mapped loaders exist for.
  std::uint32_t stored = 0;
  size_ = CheckFooter(data_, size_, &stored, path_);
  if (verify_checksum && Crc32(data_, size_) != stored) {
    throw std::runtime_error(Describe(path_, "checksum mismatch"));
  }
}

std::vector<std::uint64_t> MappedReader::Header(
    const char magic[8], std::uint32_t expected_version) {
  return Header(magic, expected_version, expected_version, nullptr);
}

std::vector<std::uint64_t> MappedReader::Header(const char magic[8],
                                                std::uint32_t min_version,
                                                std::uint32_t max_version,
                                                std::uint32_t* version_out) {
  // The header is a 64-byte section of its own: skip the padding in front
  // of it and bounds-check before touching the bytes.
  const char* header =
      static_cast<const char*>(Section(kBinaryAlignment, 1));
  if (std::memcmp(header, magic, 8) != 0) {
    throw std::runtime_error(
        Describe(path_, "bad magic (not a file of this type)"));
  }
  std::uint32_t version = 0;
  std::memcpy(&version, header + 8, sizeof(version));
  if (version < min_version || version > max_version) {
    const std::string reads =
        min_version == max_version
            ? "version " + std::to_string(min_version)
            : "versions " + std::to_string(min_version) + ".." +
                  std::to_string(max_version);
    throw std::runtime_error(
        "binary_io: format version mismatch: file has version " +
        std::to_string(version) + ", this build reads " + reads + " (" +
        path_ + ")");
  }
  if (version_out != nullptr) *version_out = version;
  std::vector<std::uint64_t> counts(kBinaryHeaderCounts);
  std::memcpy(counts.data(), header + 16,
              kBinaryHeaderCounts * sizeof(std::uint64_t));
  return counts;
}

const void* MappedReader::Section(std::uint64_t count, std::size_t elem_size) {
  // Every check happens before the section pointer is formed: a corrupt
  // count or a truncated tail must fail as "truncated file", never as an
  // out-of-bounds view.
  const std::size_t pad = PadTo(offset_);
  if (pad > remaining()) {
    // The file ends inside the padding — the section's aligned start would
    // lie beyond EOF.
    throw std::runtime_error(Describe(path_, "truncated file"));
  }
  const std::size_t start = offset_ + pad;
  // Division form: count * elem_size is only computed once it provably fits
  // in the tail, so the multiplication cannot overflow.
  if (elem_size != 0 && count > (size_ - start) / elem_size) {
    throw std::runtime_error(Describe(path_, "truncated file"));
  }
  const char* ptr = data_ + start;
  if (elem_size != 0 &&
      reinterpret_cast<std::uintptr_t>(ptr) % elem_size != 0) {
    // Unreachable for well-formed maps (the mapping base is page-aligned
    // and `start` is 64-byte aligned); guards the heap fallback.
    throw std::runtime_error(Describe(path_, "misaligned section"));
  }
  offset_ = start + static_cast<std::size_t>(count) * elem_size;
  return ptr;
}

}  // namespace cned
