#ifndef CNED_TESTS_SNAPSHOT_TEST_UTIL_H_
#define CNED_TESTS_SNAPSHOT_TEST_UTIL_H_

// Shared test helpers: scratch files and directories, the dictionary
// workload, snapshot byte edits and the sweep-kernel guard. One
// implementation, so a fix to any of them reaches every suite.

#include <gtest/gtest.h>

#include <stdlib.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/crc32.h"
#include "datasets/dictionary_gen.h"
#include "search/sweep_kernel.h"

namespace cned {

/// Deterministic dictionary workload for round-trip/fuzz tests.
inline std::vector<std::string> Words(std::size_t n, std::uint64_t seed) {
  DictionaryOptions opt;
  opt.word_count = n;
  opt.seed = seed;
  return GenerateDictionary(opt).strings;
}

/// Unique scratch path per test, removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(std::string(::testing::TempDir()) + "cned_" + name + "_" +
              std::to_string(static_cast<unsigned long>(::getpid())) +
              ".bin") {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Fresh scratch directory `<prefix>XXXXXX` under the test temp dir,
/// removed with its contents on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& prefix) {
    std::string tmpl = std::string(::testing::TempDir()) + prefix + "XXXXXX";
    const char* p = mkdtemp(tmpl.data());
    EXPECT_NE(p, nullptr) << tmpl;
    if (p != nullptr) path = p;
  }
  ~TempDir() {
    if (!path.empty()) std::filesystem::remove_all(path);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  std::string path;
};

/// Restores the startup-active sweep-kernel variant when a test is done
/// forcing one.
class KernelGuard {
 public:
  KernelGuard() : saved_(ActiveSweepKernels().name) {}
  ~KernelGuard() { SetActiveSweepKernels(saved_); }

 private:
  std::string saved_;
};

inline std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

/// Replaces the contents of `path` (created if missing) with `bytes`. The
/// file is overwritten in place and then cut to size, not opened with
/// truncation: a truncate-to-zero followed by a rewrite makes ext4 flush the
/// file at close (auto_da_alloc), tens of milliseconds per call, which the
/// seeded-mutation tests would pay thousands of times.
inline void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  { std::ofstream create(path, std::ios::binary | std::ios::app); }
  {
    std::fstream out(path, std::ios::binary | std::ios::in | std::ios::out);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  std::filesystem::resize_file(path, bytes.size());
}

/// Re-stamps the checksum footer over `bytes`: strips an existing trailing
/// footer (if any), then appends a fresh one whose CRC matches the payload.
/// Corruption tests that target the *structural* validation use this so
/// their bit edits get past the checksum gate — otherwise every edit would
/// fail as "checksum mismatch" before reaching the check under test.
inline std::vector<char> StampFooter(std::vector<char> bytes) {
  if (bytes.size() >= kBinaryAlignment &&
      std::memcmp(bytes.data() + bytes.size() - kBinaryAlignment,
                  kBinaryFooterMagic, 8) == 0) {
    bytes.resize(bytes.size() - kBinaryAlignment);
  }
  const std::uint32_t crc = Crc32(bytes.data(), bytes.size());
  std::vector<char> footer(kBinaryAlignment, 0);
  std::memcpy(footer.data(), kBinaryFooterMagic, 8);
  std::memcpy(footer.data() + 8, &crc, sizeof(crc));
  bytes.insert(bytes.end(), footer.begin(), footer.end());
  return bytes;
}

/// WriteAll + StampFooter: the edited payload lands on disk with a valid
/// checksum footer.
inline void WriteAllRestamped(const std::string& path,
                              const std::vector<char>& bytes) {
  WriteAll(path, StampFooter(bytes));
}

}  // namespace cned

#endif  // CNED_TESTS_SNAPSHOT_TEST_UTIL_H_
