// Binary serialization contracts: a saved-and-loaded
// PrototypeStore / ShardedPrototypeStore / Laesa over either must
// reproduce identical query results and stats across every registered
// distance, the on-disk sections must honour the 64-byte-aligned versioned
// header layout, and corrupt / truncated / wrong-version files must fail
// loudly instead of loading garbage.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"
#include "datasets/perturb.h"
#include "datasets/prototype_store.h"
#include "datasets/sharded_prototype_store.h"
#include "distances/registry.h"
#include "search/laesa.h"
#include "search/table_quant.h"
#include "tests/snapshot_test_util.h"

namespace cned {
namespace {

TEST(SerializationTest, PrototypeStoreRoundTrip) {
  const auto words = Words(80, 7100);
  PrototypeStore store(words);
  TempFile file("store");
  store.SaveBinary(file.path());
  PrototypeStore loaded = PrototypeStore::LoadBinary(file.path());
  ASSERT_EQ(loaded.size(), store.size());
  EXPECT_EQ(loaded.arena_bytes(), store.arena_bytes());
  for (std::size_t i = 0; i < store.size(); ++i) {
    EXPECT_EQ(loaded.view(i), store.view(i)) << i;
    EXPECT_EQ(loaded.length(i), store.length(i)) << i;
  }
}

TEST(SerializationTest, EmptyPrototypeStoreRoundTrip) {
  PrototypeStore store;
  TempFile file("empty_store");
  store.SaveBinary(file.path());
  EXPECT_EQ(PrototypeStore::LoadBinary(file.path()).size(), 0u);
}

// The acceptance contract: for every registered distance, a saved/loaded
// index answers queries with bit-identical neighbours, distances and stats.
TEST(SerializationTest, LaesaGoldenRoundTripAcrossAllDistances) {
  const auto words = Words(60, 7200);
  PrototypeStore store(words);
  Rng rng(7201);
  const auto queries = MakeQueries(words, 10, 2, Alphabet::Latin(), rng);
  for (const auto& name : AllDistanceNames()) {
    auto dist = MakeDistance(name);
    Laesa original(store, dist, 6);
    TempFile file("laesa_" + name);
    original.Save(file.path());
    Laesa loaded = Laesa::Load(file.path(), store, dist);
    EXPECT_EQ(loaded.pivots(), original.pivots()) << name;
    for (const auto& q : queries) {
      QueryStats sa, sb;
      const NeighborResult a = original.Nearest(q, &sa);
      const NeighborResult b = loaded.Nearest(q, &sb);
      EXPECT_EQ(a.index, b.index) << name << " q=" << q;
      EXPECT_EQ(a.distance, b.distance) << name << " q=" << q;
      EXPECT_TRUE(sa == sb) << name << " q=" << q;
    }
  }
}

TEST(SerializationTest, ShardedStoreAndIndexRoundTripAcrossAllDistances) {
  const auto words = Words(60, 7300);
  std::vector<int> labels(words.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i % 3);
  }
  ShardedPrototypeStore store(words, 4, labels);
  TempFile store_file("sharded_store");
  store.SaveBinary(store_file.path());
  ShardedPrototypeStore loaded_store =
      ShardedPrototypeStore::LoadBinary(store_file.path());
  ASSERT_EQ(loaded_store.shard_count(), store.shard_count());
  ASSERT_EQ(loaded_store.size(), store.size());
  EXPECT_EQ(loaded_store.labels(), store.labels());
  for (std::size_t i = 0; i < store.size(); ++i) {
    EXPECT_EQ(loaded_store.view(i), store.view(i)) << i;
  }

  Rng rng(7301);
  const auto queries = MakeQueries(words, 8, 2, Alphabet::Latin(), rng);
  for (const auto& name : AllDistanceNames()) {
    auto dist = MakeDistance(name);
    Laesa original(store, dist, 5);
    TempFile file("sharded_laesa_" + name);
    original.Save(file.path());
    // Load against the *loaded* store: the full serving path — both halves
    // of the snapshot come off disk.
    Laesa loaded = Laesa::Load(file.path(), loaded_store, dist);
    EXPECT_EQ(loaded.pivots(), original.pivots()) << name;
    for (const auto& q : queries) {
      QueryStats sa, sb;
      const NeighborResult a = original.Nearest(q, &sa);
      const NeighborResult b = loaded.Nearest(q, &sb);
      EXPECT_EQ(a.index, b.index) << name << " q=" << q;
      EXPECT_EQ(a.distance, b.distance) << name << " q=" << q;
      EXPECT_TRUE(sa == sb) << name << " q=" << q;
    }
  }
}

TEST(SerializationTest, HeaderLayoutIsAlignedAndVersioned) {
  const auto words = Words(20, 7400);
  PrototypeStore store(words);
  TempFile file("layout");
  store.SaveBinary(file.path());
  const auto bytes = ReadAll(file.path());
  ASSERT_GE(bytes.size(), kBinaryAlignment);
  // Magic in the first 8 bytes, version at offset 8, counts from 16.
  EXPECT_EQ(std::string(bytes.data(), 4), "CNED");
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 8, sizeof(version));
  EXPECT_EQ(version, 1u);
  std::uint64_t count = 0;
  std::memcpy(&count, bytes.data() + 16, sizeof(count));
  EXPECT_EQ(count, store.size());
  // Every section starts on a 64-byte boundary and Finish() pads the
  // payload before appending the 64-byte checksum footer, so the whole
  // file is a whole number of alignment blocks ending in the footer magic.
  EXPECT_EQ(bytes.size() % kBinaryAlignment, 0u);
  ASSERT_GE(bytes.size(), 2 * kBinaryAlignment);
  EXPECT_EQ(std::memcmp(bytes.data() + bytes.size() - kBinaryAlignment,
                        kBinaryFooterMagic, 8),
            0);
}

// ---------------------------------------------------------------------------
// Checksum footer: a bit flip anywhere in the payload or a truncated footer
// must fail loudly — in the copying loader always, in the mapped loader
// whenever verification is requested.
// ---------------------------------------------------------------------------

TEST(SerializationTest, LoadRejectsBitFlipInArena) {
  const auto words = Words(40, 9100);
  PrototypeStore store(words);
  TempFile file("crc_bitflip");
  store.SaveBinary(file.path());
  auto bytes = ReadAll(file.path());
  // Flip one bit in the last payload block — inside the arena section,
  // where no structural check could ever notice (the characters are
  // opaque). Only the checksum catches this class of corruption.
  bytes[bytes.size() - kBinaryAlignment - 1] ^= 0x10;
  WriteAll(file.path(), bytes);
  try {
    (void)PrototypeStore::LoadBinary(file.path());
    FAIL() << "expected checksum mismatch";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
  // The verifying reader (what the serving tier's workers and router
  // construct, and what every copying loader runs) rejects it too...
  EXPECT_THROW(
      MappedReader(MappedFile::Open(file.path()), /*verify_checksum=*/true),
      std::runtime_error);
  // ...while a reader that skips the pass sees an intact footer: only the
  // checksum catches this class of corruption.
  EXPECT_NO_THROW(
      MappedReader(MappedFile::Open(file.path()), /*verify_checksum=*/false));
}

TEST(SerializationTest, LoadRejectsTruncatedFooter) {
  const auto words = Words(20, 9200);
  PrototypeStore store(words);
  TempFile file("crc_trunc_footer");
  store.SaveBinary(file.path());
  auto bytes = ReadAll(file.path());
  bytes.resize(bytes.size() - 10);  // cut into the footer block
  WriteAll(file.path(), bytes);
  try {
    (void)PrototypeStore::LoadBinary(file.path());
    FAIL() << "expected missing footer";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("footer"), std::string::npos);
  }
  EXPECT_THROW(PrototypeStore::Map(file.path()), std::runtime_error);
  EXPECT_THROW(
      MappedReader(MappedFile::Open(file.path()), /*verify_checksum=*/true),
      std::runtime_error);
}

TEST(SerializationTest, VerifyingReaderAcceptsIntactFiles) {
  const auto words = Words(30, 9300);
  ShardedPrototypeStore store(words, 3);
  Laesa index(store, MakeDistance("dE"), 4);
  TempFile store_file("crc_ok_store");
  TempFile index_file("crc_ok_index");
  store.SaveBinary(store_file.path());
  index.Save(index_file.path());
  EXPECT_NO_THROW(MappedReader(MappedFile::Open(store_file.path()),
                               /*verify_checksum=*/true));
  EXPECT_NO_THROW(MappedReader(MappedFile::Open(index_file.path()),
                               /*verify_checksum=*/true));
  // CNED_SNAPSHOT_VERIFY=1 routes every mapped load through the same check.
  // The previous value is restored, so a suite run with the variable set
  // keeps verifying in the tests that follow.
  const char* before = std::getenv("CNED_SNAPSHOT_VERIFY");
  const std::string saved = before != nullptr ? before : "";
  ::setenv("CNED_SNAPSHOT_VERIFY", "1", 1);
  EXPECT_NO_THROW(ShardedPrototypeStore::Map(store_file.path()));
  if (before != nullptr) {
    ::setenv("CNED_SNAPSHOT_VERIFY", saved.c_str(), 1);
  } else {
    ::unsetenv("CNED_SNAPSHOT_VERIFY");
  }
}

TEST(SerializationTest, LoadRejectsBadMagic) {
  const auto words = Words(20, 7500);
  PrototypeStore store(words);
  TempFile file("bad_magic");
  store.SaveBinary(file.path());
  auto bytes = ReadAll(file.path());
  bytes[0] = 'X';
  WriteAllRestamped(file.path(), bytes);
  EXPECT_THROW(PrototypeStore::LoadBinary(file.path()), std::runtime_error);
}

TEST(SerializationTest, LoadRejectsVersionMismatch) {
  const auto words = Words(20, 7600);
  PrototypeStore store(words);
  Laesa laesa(store, MakeDistance("dE"), 4);
  TempFile file("version");
  laesa.Save(file.path());
  auto bytes = ReadAll(file.path());
  bytes[8] = 99;  // bump the version field
  WriteAllRestamped(file.path(), bytes);
  try {
    (void)Laesa::Load(file.path(), store, MakeDistance("dE"));
    FAIL() << "expected version mismatch";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(SerializationTest, LoadRejectsTruncatedFile) {
  const auto words = Words(40, 7700);
  PrototypeStore store(words);
  Laesa laesa(store, MakeDistance("dE"), 6);
  {
    TempFile file("trunc_laesa");
    laesa.Save(file.path());
    auto bytes = ReadAll(file.path());
    bytes.resize(bytes.size() / 2);
    WriteAllRestamped(file.path(), bytes);
    EXPECT_THROW(Laesa::Load(file.path(), store, MakeDistance("dE")),
                 std::runtime_error);
  }
  {
    TempFile file("trunc_store");
    store.SaveBinary(file.path());
    auto bytes = ReadAll(file.path());
    bytes.resize(bytes.size() - 2 * kBinaryAlignment - 16);
    WriteAllRestamped(file.path(), bytes);
    EXPECT_THROW(PrototypeStore::LoadBinary(file.path()), std::runtime_error);
  }
  {
    ShardedPrototypeStore sharded(words, 3);
    Laesa index(sharded, MakeDistance("dE"), 4);
    TempFile file("trunc_sharded");
    index.Save(file.path());
    auto bytes = ReadAll(file.path());
    bytes.resize(bytes.size() - 3 * kBinaryAlignment);
    WriteAllRestamped(file.path(), bytes);
    EXPECT_THROW(Laesa::Load(file.path(), sharded, MakeDistance("dE")),
                 std::runtime_error);
  }
}

TEST(SerializationTest, LoadRejectsMismatchedStoreShape) {
  const auto words = Words(30, 7800);
  PrototypeStore store(words);
  Laesa laesa(store, MakeDistance("dE"), 4);
  TempFile file("shape");
  laesa.Save(file.path());
  PrototypeStore smaller(
      std::vector<std::string>(words.begin(), words.end() - 1));
  EXPECT_THROW(Laesa::Load(file.path(), smaller, MakeDistance("dE")),
               std::runtime_error);

  ShardedPrototypeStore sharded(words, 3);
  Laesa index(sharded, MakeDistance("dE"), 4);
  TempFile sharded_file("sharded_shape");
  index.Save(sharded_file.path());
  ShardedPrototypeStore other_shape(words, 5);
  EXPECT_THROW(
      Laesa::Load(sharded_file.path(), other_shape, MakeDistance("dE")),
      std::runtime_error);
}

TEST(SerializationTest, LoadRejectsCorruptHeaderCounts) {
  // A flipped count field must fail as a runtime_error ("truncated"), not
  // size a multi-exabyte allocation (std::bad_alloc / OOM kill).
  const auto words = Words(20, 7900);
  PrototypeStore store(words);
  TempFile file("corrupt_count");
  store.SaveBinary(file.path());
  auto bytes = ReadAll(file.path());
  for (std::size_t b = 16; b < 24; ++b) bytes[b] = static_cast<char>(0xFF);
  WriteAllRestamped(file.path(), bytes);
  EXPECT_THROW(PrototypeStore::LoadBinary(file.path()), std::runtime_error);

  ShardedPrototypeStore sharded(words, 2);
  TempFile sharded_file("corrupt_shard_count");
  sharded.SaveBinary(sharded_file.path());
  auto sharded_bytes = ReadAll(sharded_file.path());
  for (std::size_t b = 16; b < 24; ++b) {
    sharded_bytes[b] = static_cast<char>(0xFF);
  }
  WriteAllRestamped(sharded_file.path(), sharded_bytes);
  EXPECT_THROW(ShardedPrototypeStore::LoadBinary(sharded_file.path()),
               std::runtime_error);
}

TEST(SerializationTest, LoadRejectsMissingFile) {
  EXPECT_THROW(PrototypeStore::LoadBinary("/nonexistent/cned.bin"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Mapped (zero-copy) loading: the same corruption classes must fail cleanly
// — std::runtime_error, never a pointer formed past the end of the mapping.
// The ASan+UBSan CI job runs these, so any out-of-bounds read the checks
// miss becomes a hard failure there.
// ---------------------------------------------------------------------------

TEST(SerializationTest, MapRejectsMissingEmptyAndBadMagicFiles) {
  EXPECT_THROW(PrototypeStore::Map("/nonexistent/cned.bin"),
               std::runtime_error);

  TempFile empty("map_empty");
  WriteAll(empty.path(), {});
  EXPECT_THROW(PrototypeStore::Map(empty.path()), std::runtime_error);

  const auto words = Words(20, 8100);
  PrototypeStore store(words);
  TempFile file("map_bad_magic");
  store.SaveBinary(file.path());
  auto bytes = ReadAll(file.path());
  bytes[0] = 'X';
  WriteAllRestamped(file.path(), bytes);
  EXPECT_THROW(PrototypeStore::Map(file.path()), std::runtime_error);

  bytes = ReadAll(file.path());
  bytes[0] = 'C';
  bytes[8] = 99;  // version field
  WriteAllRestamped(file.path(), bytes);
  try {
    (void)PrototypeStore::Map(file.path());
    FAIL() << "expected version mismatch";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(SerializationTest, MapRejectsTruncatedTail) {
  const auto words = Words(40, 8200);
  PrototypeStore store(words);
  {
    TempFile file("map_trunc_store");
    store.SaveBinary(file.path());
    auto bytes = ReadAll(file.path());
    bytes.resize(bytes.size() / 2);
    WriteAllRestamped(file.path(), bytes);
    EXPECT_THROW(PrototypeStore::Map(file.path()), std::runtime_error);
  }
  {
    Laesa laesa(store, MakeDistance("dE"), 6);
    TempFile file("map_trunc_laesa");
    laesa.Save(file.path());
    auto bytes = ReadAll(file.path());
    bytes.resize(bytes.size() - 2 * kBinaryAlignment - 24);
    WriteAllRestamped(file.path(), bytes);
    EXPECT_THROW(Laesa::Map(file.path(), store, MakeDistance("dE")),
                 std::runtime_error);
  }
  {
    ShardedPrototypeStore sharded(words, 3);
    Laesa index(sharded, MakeDistance("dE"), 4);
    TempFile store_file("map_trunc_sstore");
    TempFile index_file("map_trunc_slaesa");
    sharded.SaveBinary(store_file.path());
    index.Save(index_file.path());
    auto bytes = ReadAll(store_file.path());
    bytes.resize(bytes.size() * 2 / 3);
    WriteAllRestamped(store_file.path(), bytes);
    EXPECT_THROW(ShardedPrototypeStore::Map(store_file.path()),
                 std::runtime_error);
    bytes = ReadAll(index_file.path());
    bytes.resize(bytes.size() - 3 * kBinaryAlignment);
    WriteAllRestamped(index_file.path(), bytes);
    EXPECT_THROW(Laesa::Map(index_file.path(), sharded,
                                   MakeDistance("dE")),
                 std::runtime_error);
  }
}

TEST(SerializationTest, MapRejectsSectionStartBeyondFileEnd) {
  // Cut the file inside the zero padding ahead of a section: the section's
  // 64-byte-aligned start then lies past EOF ("misaligned section offset" —
  // no aligned view can be formed), which must fail as truncation.
  const auto words = Words(20, 8300);
  PrototypeStore store(words);
  TempFile file("map_pad_cut");
  store.SaveBinary(file.path());
  auto bytes = ReadAll(file.path());
  // Layout: 64B header, offsets (20 x 4 = 80B) ending at 144, padding to
  // 192, lengths... Cutting at 150 leaves the cursor mid-padding.
  ASSERT_GT(bytes.size(), 192u);
  bytes.resize(150);
  WriteAllRestamped(file.path(), bytes);
  EXPECT_THROW(PrototypeStore::Map(file.path()), std::runtime_error);
}

TEST(SerializationTest, MapRejectsSectionLengthOverflowingFileSize) {
  const auto words = Words(20, 8400);
  PrototypeStore store(words);
  {
    // Arena count inflated past the file size (but under the 32-bit cap, so
    // it reaches the extent check): must throw before any view is formed.
    TempFile file("map_arena_overflow");
    store.SaveBinary(file.path());
    auto bytes = ReadAll(file.path());
    const std::uint64_t huge_arena = 0x7FFFFFFF;
    std::memcpy(bytes.data() + 24, &huge_arena, sizeof(huge_arena));
    WriteAllRestamped(file.path(), bytes);
    EXPECT_THROW(PrototypeStore::Map(file.path()), std::runtime_error);
  }
  {
    // A count of 2^64-1 must fail as truncation, not overflow into a tiny
    // extent that "fits".
    TempFile file("map_count_overflow");
    store.SaveBinary(file.path());
    auto bytes = ReadAll(file.path());
    for (std::size_t b = 16; b < 24; ++b) bytes[b] = static_cast<char>(0xFF);
    WriteAllRestamped(file.path(), bytes);
    EXPECT_THROW(PrototypeStore::Map(file.path()), std::runtime_error);
  }
  {
    ShardedPrototypeStore sharded(words, 2);
    TempFile file("map_shard_count_overflow");
    sharded.SaveBinary(file.path());
    auto bytes = ReadAll(file.path());
    for (std::size_t b = 16; b < 24; ++b) bytes[b] = static_cast<char>(0xFF);
    WriteAllRestamped(file.path(), bytes);
    EXPECT_THROW(ShardedPrototypeStore::Map(file.path()), std::runtime_error);
  }
}

TEST(SerializationTest, MapRejectsOffsetsOutsideArena) {
  // A corrupt offset/length pair pointing past the arena must be caught at
  // map time — view(i) has no per-access bounds check by design.
  const auto words = Words(20, 8500);
  PrototypeStore store(words);
  TempFile file("map_bad_offset");
  store.SaveBinary(file.path());
  auto bytes = ReadAll(file.path());
  const std::uint32_t huge_offset = 0x40000000;
  std::memcpy(bytes.data() + kBinaryAlignment + 4, &huge_offset,
              sizeof(huge_offset));  // offsets[1]
  WriteAllRestamped(file.path(), bytes);
  EXPECT_THROW(PrototypeStore::Map(file.path()), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Quantized pivot tables (format version 2): round-trips at every precision
// across every registered distance, plus the corruption classes specific to
// the new sections. Within one precision the copy-loaded and the mapped
// index must be bit-identical to the built index — results AND stats.
// ---------------------------------------------------------------------------

constexpr TablePrecision kQuantPrecisions[] = {
    TablePrecision::kF32, TablePrecision::kF16, TablePrecision::kU8};

TEST(SerializationTest, QuantizedLaesaRoundTripAcrossAllDistances) {
  const auto words = Words(60, 7210);
  PrototypeStore store(words);
  Rng rng(7211);
  const auto queries = MakeQueries(words, 8, 2, Alphabet::Latin(), rng);
  for (TablePrecision prec : kQuantPrecisions) {
    for (const auto& name : AllDistanceNames()) {
      auto dist = MakeDistance(name);
      Laesa original(store, dist, 6, prec);
      const std::string tag =
          std::string(TablePrecisionName(prec)) + "/" + name;
      TempFile file("laesa_quant");
      original.Save(file.path());
      Laesa loaded = Laesa::Load(file.path(), store, dist);
      Laesa mapped = Laesa::Map(file.path(), store, dist);
      EXPECT_EQ(loaded.table_precision(), prec) << tag;
      EXPECT_EQ(mapped.table_precision(), prec) << tag;
      EXPECT_EQ(loaded.pivots(), original.pivots()) << tag;
      for (const auto& q : queries) {
        QueryStats sa, sb, sc;
        const NeighborResult a = original.Nearest(q, &sa);
        const NeighborResult b = loaded.Nearest(q, &sb);
        const NeighborResult c = mapped.Nearest(q, &sc);
        EXPECT_EQ(a.index, b.index) << tag << " q=" << q;
        EXPECT_EQ(a.distance, b.distance) << tag << " q=" << q;
        EXPECT_TRUE(sa == sb) << tag << " q=" << q;
        EXPECT_EQ(a.index, c.index) << tag << " q=" << q;
        EXPECT_EQ(a.distance, c.distance) << tag << " q=" << q;
        EXPECT_TRUE(sa == sc) << tag << " q=" << q;
      }
    }
  }
}

TEST(SerializationTest, QuantizedShardedRoundTripAcrossAllDistances) {
  const auto words = Words(60, 7310);
  ShardedPrototypeStore store(words, 4);
  Rng rng(7311);
  const auto queries = MakeQueries(words, 6, 2, Alphabet::Latin(), rng);
  for (TablePrecision prec : kQuantPrecisions) {
    for (const auto& name : AllDistanceNames()) {
      auto dist = MakeDistance(name);
      Laesa original(store, dist, 5, prec);
      const std::string tag =
          std::string(TablePrecisionName(prec)) + "/" + name;
      TempFile file("sharded_quant");
      original.Save(file.path());
      Laesa loaded = Laesa::Load(file.path(), store, dist);
      Laesa mapped = Laesa::Map(file.path(), store, dist);
      EXPECT_EQ(loaded.table_precision(), prec) << tag;
      EXPECT_EQ(mapped.table_precision(), prec) << tag;
      for (const auto& q : queries) {
        QueryStats sa, sb, sc;
        const NeighborResult a = original.Nearest(q, &sa);
        const NeighborResult b = loaded.Nearest(q, &sb);
        const NeighborResult c = mapped.Nearest(q, &sc);
        EXPECT_EQ(a.index, b.index) << tag << " q=" << q;
        EXPECT_EQ(a.distance, b.distance) << tag << " q=" << q;
        EXPECT_TRUE(sa == sb) << tag << " q=" << q;
        EXPECT_EQ(a.index, c.index) << tag << " q=" << q;
        EXPECT_EQ(a.distance, c.distance) << tag << " q=" << q;
        EXPECT_TRUE(sa == sc) << tag << " q=" << q;
      }
    }
  }
}

TEST(SerializationTest, QuantizedFilesAreVersion2AndF64StaysVersion1) {
  const auto words = Words(30, 7410);
  PrototypeStore store(words);
  auto dist = MakeDistance("dE");
  {
    Laesa f64(store, dist, 4, TablePrecision::kF64);
    TempFile file("ver_f64");
    f64.Save(file.path());
    const auto bytes = ReadAll(file.path());
    EXPECT_EQ(bytes[8], 1);  // f64 keeps the v1 on-disk format untouched
  }
  {
    Laesa u8(store, dist, 4, TablePrecision::kU8);
    TempFile file("ver_u8");
    u8.Save(file.path());
    const auto bytes = ReadAll(file.path());
    EXPECT_EQ(bytes[8], 2);
    // counts[3] carries the precision tag (counts {n, S, np, precision}).
    std::uint64_t prec = 0;
    std::memcpy(&prec, bytes.data() + 16 + 3 * sizeof(std::uint64_t),
                sizeof(prec));
    EXPECT_EQ(prec, static_cast<std::uint64_t>(TablePrecision::kU8));
  }
}

TEST(SerializationTest, QuantizedLoadRejectsCorruptPrecisionAndTruncation) {
  const auto words = Words(40, 7510);
  PrototypeStore store(words);
  auto dist = MakeDistance("dE");
  Laesa u8(store, dist, 6, TablePrecision::kU8);
  {
    // Precision tag outside {f32, f16, u8}: must be rejected as malformed,
    // both copying and mapped.
    TempFile file("quant_bad_prec");
    u8.Save(file.path());
    auto bytes = ReadAll(file.path());
    const std::uint64_t bogus = 7;
    std::memcpy(bytes.data() + 16 + 3 * sizeof(std::uint64_t), &bogus,
                sizeof(bogus));
    WriteAllRestamped(file.path(), bytes);
    EXPECT_THROW(Laesa::Load(file.path(), store, dist), std::runtime_error);
    EXPECT_THROW(Laesa::Map(file.path(), store, dist), std::runtime_error);
  }
  {
    // Truncation inside the code section: the element width is 1, so the
    // cut lands mid-table and both loaders must fail as truncation.
    TempFile file("quant_trunc");
    u8.Save(file.path());
    auto bytes = ReadAll(file.path());
    bytes.resize(bytes.size() - 2 * kBinaryAlignment);
    WriteAllRestamped(file.path(), bytes);
    EXPECT_THROW(Laesa::Load(file.path(), store, dist), std::runtime_error);
    EXPECT_THROW(Laesa::Map(file.path(), store, dist), std::runtime_error);
  }
  {
    // A bit flip in the quantized code section fails the checksum in the
    // copying loader — codes are opaque bytes, no structural check notices.
    TempFile file("quant_bitflip");
    u8.Save(file.path());
    auto bytes = ReadAll(file.path());
    bytes[bytes.size() - kBinaryAlignment - 1] ^= 0x04;
    WriteAll(file.path(), bytes);
    try {
      (void)Laesa::Load(file.path(), store, dist);
      FAIL() << "expected checksum mismatch";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
    }
  }
  {
    // Future version: the range-form header must still name "version".
    TempFile file("quant_version");
    u8.Save(file.path());
    auto bytes = ReadAll(file.path());
    bytes[8] = 99;
    WriteAllRestamped(file.path(), bytes);
    try {
      (void)Laesa::Load(file.path(), store, dist);
      FAIL() << "expected version mismatch";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    }
  }
  {
    // Same truncation class for the sharded v2 format.
    ShardedPrototypeStore sharded(words, 3);
    Laesa index(sharded, dist, 4, TablePrecision::kF16);
    TempFile file("quant_sharded_trunc");
    index.Save(file.path());
    auto bytes = ReadAll(file.path());
    bytes.resize(bytes.size() - 2 * kBinaryAlignment);
    WriteAllRestamped(file.path(), bytes);
    EXPECT_THROW(Laesa::Load(file.path(), sharded, dist),
                 std::runtime_error);
    EXPECT_THROW(Laesa::Map(file.path(), sharded, dist),
                 std::runtime_error);
  }
}

TEST(SerializationTest, MapRejectsMismatchedStoreShape) {
  const auto words = Words(30, 8600);
  PrototypeStore store(words);
  Laesa laesa(store, MakeDistance("dE"), 4);
  TempFile file("map_shape");
  laesa.Save(file.path());
  PrototypeStore smaller(
      std::vector<std::string>(words.begin(), words.end() - 1));
  EXPECT_THROW(Laesa::Map(file.path(), smaller, MakeDistance("dE")),
               std::runtime_error);

  ShardedPrototypeStore sharded(words, 3);
  Laesa index(sharded, MakeDistance("dE"), 4);
  TempFile sharded_file("map_sharded_shape");
  index.Save(sharded_file.path());
  ShardedPrototypeStore other_shape(words, 5);
  EXPECT_THROW(
      Laesa::Map(sharded_file.path(), other_shape, MakeDistance("dE")),
      std::runtime_error);
}

// ---------------------------------------------------------------------------
// One walk per format: the copying loader and Map read every snapshot
// through the same MappedReader walk, so on any restamped mutation of a
// snapshot they must both reject it (std::runtime_error) or both return
// identical content.
// ---------------------------------------------------------------------------

// Appends `v`'s bytes to `out`, so float payloads compare bit for bit.
template <typename T>
void AppendBits(std::string& out, const T& v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

// Everything a loaded store shows: size, arena size and strings; for the
// sharded store also its shards and labels.
std::string Fingerprint(const PrototypeStore& store) {
  std::string out;
  AppendBits(out, store.size());
  AppendBits(out, store.arena_bytes());
  for (std::size_t i = 0; i < store.size(); ++i) {
    AppendBits(out, store.length(i));
    out.append(store.view(i));
  }
  return out;
}

std::string Fingerprint(const ShardedPrototypeStore& store) {
  std::string out;
  AppendBits(out, store.shard_count());
  for (std::size_t s = 0; s < store.shard_count(); ++s) {
    out += Fingerprint(store.shard(s));
  }
  AppendBits(out, store.labels().size());
  for (int label : store.labels()) AppendBits(out, label);
  return out;
}

// An index's pivots, precision, and 3-NN results plus stats for `queries`.
template <typename Index>
std::string Fingerprint(const Index& index,
                        const std::vector<std::string>& queries) {
  std::string out;
  AppendBits(out, index.table_precision());
  for (std::size_t p : index.pivots()) AppendBits(out, p);
  for (const auto& q : queries) {
    QueryStats stats;
    for (const NeighborResult& r : index.KNearest(q, 3, &stats)) {
      AppendBits(out, r.index);
      AppendBits(out, r.distance);
    }
    AppendBits(out, stats.distance_computations);
    AppendBits(out, stats.bounded_abandons);
    AppendBits(out, stats.pivot_computations);
    AppendBits(out, stats.shards_degraded);
  }
  return out;
}

// Runs one loader: its content fingerprint, or "rejected" when it throws
// std::runtime_error. Any other exception fails the test.
template <typename Load>
std::string Outcome(Load&& load) {
  try {
    return "loaded:" + load();
  } catch (const std::runtime_error&) {
    return "rejected";
  }
}

// Runs `kMutations` seeded mutations of the snapshot at `path` (each a
// random header-count byte, a random payload byte or a random truncation,
// restamped) and expects `load` and `map` to agree on every one. Returns
// how many mutants were accepted.
constexpr int kMutations = 2000;

template <typename Load, typename Map>
int ExpectLoadersAgreeUnderMutation(const std::string& path,
                                    std::uint64_t seed, Load&& load,
                                    Map&& map) {
  const std::vector<char> original = ReadAll(path);
  // The mutations act on the payload; WriteAllRestamped appends the footer.
  const std::vector<char> payload(original.begin(),
                                  original.end() - kBinaryAlignment);
  const std::string intact = Outcome(load);
  EXPECT_NE(intact, "rejected") << path;
  EXPECT_EQ(intact, Outcome(map)) << path << " intact";
  Rng rng(seed);
  int accepted = 0;
  for (int m = 0; m < kMutations; ++m) {
    std::vector<char> bytes = payload;
    const std::int64_t kind = rng.UniformInt(0, 2);
    const auto flip = static_cast<char>(rng.UniformInt(1, 255));
    if (kind == 0) {
      bytes[16 + rng.Index(48)] ^= flip;  // the first header's counts
    } else if (kind == 1) {
      bytes[rng.Index(bytes.size())] ^= flip;
    } else {
      bytes.resize(rng.Index(bytes.size()));
    }
    WriteAllRestamped(path, bytes);
    const std::string loaded = Outcome(load);
    EXPECT_EQ(loaded, Outcome(map))
        << path << " mutation " << m << " kind " << kind;
    if (loaded != "rejected") ++accepted;
  }
  return accepted;
}

TEST(SerializationTest, LoadAndMapAgreeUnderSeededMutation) {
  const auto words = Words(40, 9400);
  std::vector<int> labels(words.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i % 4) - 1;
  }
  const PrototypeStore store(words);
  const ShardedPrototypeStore sharded(words, 3, labels);
  const auto dist = MakeDistance("dE");
  Rng qrng(9401);
  const auto queries = MakeQueries(words, 3, 2, Alphabet::Latin(), qrng);

  {
    TempFile file("mut_store");
    store.SaveBinary(file.path());
    const int accepted = ExpectLoadersAgreeUnderMutation(
        file.path(), 9410,
        [&] { return Fingerprint(PrototypeStore::LoadBinary(file.path())); },
        [&] { return Fingerprint(PrototypeStore::Map(file.path())); });
    EXPECT_GT(accepted, 0);
    EXPECT_LT(accepted, kMutations);
  }
  {
    TempFile file("mut_sharded_store");
    sharded.SaveBinary(file.path());
    const int accepted = ExpectLoadersAgreeUnderMutation(
        file.path(), 9420,
        [&] {
          return Fingerprint(ShardedPrototypeStore::LoadBinary(file.path()));
        },
        [&] { return Fingerprint(ShardedPrototypeStore::Map(file.path())); });
    EXPECT_GT(accepted, 0);
    EXPECT_LT(accepted, kMutations);
  }
  for (TablePrecision prec : {TablePrecision::kF64, TablePrecision::kU8}) {
    const std::string tag = TablePrecisionName(prec);
    {
      const Laesa built(store, dist, 6, prec);
      TempFile file("mut_laesa_" + tag);
      built.Save(file.path());
      const int accepted = ExpectLoadersAgreeUnderMutation(
          file.path(), 9430 + static_cast<std::uint64_t>(prec),
          [&] {
            return Fingerprint(Laesa::Load(file.path(), store, dist), queries);
          },
          [&] {
            return Fingerprint(Laesa::Map(file.path(), store, dist), queries);
          });
      EXPECT_GT(accepted, 0) << tag;
      EXPECT_LT(accepted, kMutations) << tag;
    }
    {
      const Laesa built(sharded, dist, 5, prec);
      TempFile file("mut_sharded_laesa_" + tag);
      built.Save(file.path());
      const int accepted = ExpectLoadersAgreeUnderMutation(
          file.path(), 9440 + static_cast<std::uint64_t>(prec),
          [&] {
            return Fingerprint(Laesa::Load(file.path(), sharded, dist),
                               queries);
          },
          [&] {
            return Fingerprint(Laesa::Map(file.path(), sharded, dist),
                               queries);
          });
      EXPECT_GT(accepted, 0) << tag;
      EXPECT_LT(accepted, kMutations) << tag;
    }
  }
}

// The copying loader owns its sections: the mapping it read through is
// gone when it returns, so overwriting the file cannot reach the store.
TEST(SerializationTest, LoadBinaryStoreOutlivesItsFile) {
  const auto words = Words(30, 9500);
  const PrototypeStore store(words);
  TempFile file("owned_store");
  store.SaveBinary(file.path());
  const PrototypeStore loaded = PrototypeStore::LoadBinary(file.path());
  EXPECT_FALSE(loaded.mapped());
  const ShardedPrototypeStore sharded(words, 3);
  TempFile sharded_file("owned_sharded_store");
  sharded.SaveBinary(sharded_file.path());
  const ShardedPrototypeStore sharded_loaded =
      ShardedPrototypeStore::LoadBinary(sharded_file.path());
  EXPECT_FALSE(sharded_loaded.mapped());

  PrototypeStore(Words(50, 9501)).SaveBinary(file.path());
  ShardedPrototypeStore(Words(50, 9502), 2).SaveBinary(sharded_file.path());
  EXPECT_EQ(loaded.ToStrings(), words);
  std::vector<std::string> sharded_back;
  for (std::size_t s = 0; s < sharded_loaded.shard_count(); ++s) {
    for (std::size_t j = 0; j < sharded_loaded.shard(s).size(); ++j) {
      sharded_back.emplace_back(sharded_loaded.shard(s).view(j));
    }
  }
  EXPECT_EQ(sharded_back, words);
}

}  // namespace
}  // namespace cned
