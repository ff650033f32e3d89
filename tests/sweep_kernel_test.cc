// Differential property tests for the dispatched sweep-kernel layer
// (search/sweep_kernel.h): every kernel variant compiled into this binary
// and supported by the running CPU must reproduce the scalar reference
// BIT FOR BIT — on randomised packed tables covering live counts of
// 0-9/odd/non-multiple-of-the-lane-width, +inf bounds left by eliminated
// slots, present and absent skip candidates, the survivor stream's
// bucket keys under degenerate maps, and the blocked row application for
// every group size against the per-row calls — and at the index level,
// where `Laesa` over one segment and over S shards (including the batch
// engine's pivot-stage path) must answer with identical neighbours,
// distances AND QueryStats under every kernel (the path matrix,
// tests/path_matrix.h). The quantized entries (search/table_quant.h) get
// the same bitwise differential treatment plus an admissibility property
// test: g_q <= |d - t| elementwise at every precision, for rows the
// QuantRowEncoder actually produces.
//
// The suite runs the same assertions regardless of which variant is
// *active*, so CI exercising CNED_SWEEP_KERNEL=scalar still covers the
// vector lanes of every available kernel.

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datasets/perturb.h"
#include "search/sweep_kernel.h"
#include "search/table_quant.h"
#include "tests/packed_row_update.h"
#include "tests/path_matrix.h"
#include "tests/snapshot_test_util.h"

namespace cned {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Non-scalar variants to check against the scalar reference.
std::vector<const SweepKernels*> VariantKernels() {
  std::vector<const SweepKernels*> variants;
  for (const SweepKernels* k : AvailableSweepKernels()) {
    if (std::string_view(k->name) != "scalar") variants.push_back(k);
  }
  return variants;
}

/// The live-count shapes the lane-width-sensitive code paths care about:
/// every count 0-9 (a pivot block row holds np entries, often fewer than
/// 8), odd, non-multiples of 4 and 8, and a size big enough for many full
/// blocks plus a tail.
const std::size_t kLiveCounts[] = {0, 1, 2, 3,  4,  5,  6,
                                   7, 8, 9, 13, 31, 64, 257};

struct PackedInput {
  AlignedBuffer<std::uint32_t> idx;
  AlignedBuffer<double> lower;
};

/// Fills idx with a random strictly ascending id subset (starting at
/// `base`) and lower with random bounds, a fraction of them +inf (the
/// values eliminated slots leave behind).
void MakePacked(std::mt19937_64& rng, std::size_t live, std::uint32_t base,
                PackedInput* in) {
  in->idx.resize(live + 8);
  in->lower.resize(live + 8);
  std::uniform_int_distribution<std::uint32_t> gap(1, 3);
  std::uniform_real_distribution<double> value(0.0, 8.0);
  std::uint32_t id = base;
  for (std::size_t r = 0; r < live; ++r) {
    id += gap(rng);
    in->idx.data()[r] = id;
    const int kind = static_cast<int>(rng() % 8);
    // A few duplicates-by-value and a few infinities among the bounds.
    in->lower.data()[r] =
        kind == 0 ? kInf : (kind == 1 ? 1.5 : value(rng));
  }
}

/// Copies the first `live` entries of `from` into `to`, padded as
/// `MakePacked` pads. Element by element: GCC 12 cannot bound `live` at
/// the call sites and flags a memcpy of `live` elements there with a
/// spurious -Wstringop-overflow.
void CopyPacked(const PackedInput& from, std::size_t live, PackedInput* to) {
  to->idx.resize(live + 8);
  to->lower.resize(live + 8);
  for (std::size_t r = 0; r < live; ++r) {
    to->idx.data()[r] = from.idx.data()[r];
    to->lower.data()[r] = from.lower.data()[r];
  }
}

void ExpectSameResult(const SweepCompactResult& ref,
                      const SweepCompactResult& got, const std::string& ctx) {
  EXPECT_EQ(ref.live, got.live) << ctx;
  EXPECT_EQ(ref.next, got.next) << ctx;
  // Bit equality, not numeric equality.
  EXPECT_EQ(std::memcmp(&ref.next_key, &got.next_key, sizeof(double)), 0)
      << ctx << " next_key " << ref.next_key << " vs " << got.next_key;
}

TEST(SweepKernelTest, UpdateLowerDenseMatchesScalarBitwise) {
  std::mt19937_64 rng(0xD15EA5E);
  std::uniform_real_distribution<double> value(0.0, 8.0);
  for (const SweepKernels* k : VariantKernels()) {
    for (std::size_t n : kLiveCounts) {
      for (int trial = 0; trial < 16; ++trial) {
        std::vector<double> row(n);
        AlignedBuffer<double> ref, got;
        ref.resize(n + 4);
        got.resize(n + 4);
        for (std::size_t i = 0; i < n; ++i) {
          row[i] = trial % 4 == 0 ? 2.5 : value(rng);  // duplicate-row case
          ref.data()[i] = rng() % 16 == 0 ? kInf : value(rng);
          got.data()[i] = ref.data()[i];
        }
        const double d = value(rng);
        ScalarSweepKernels().update_lower_dense(d, row.data(), ref.data(), n);
        k->update_lower_dense(d, row.data(), got.data(), n);
        EXPECT_EQ(std::memcmp(ref.data(), got.data(), n * sizeof(double)), 0)
            << k->name << " n=" << n << " trial=" << trial;
      }
    }
  }
}

TEST(SweepKernelTest, FillAbsDiffBoundsMatchesScalarBitwise) {
  std::mt19937_64 rng(0xFEEDFACE);
  for (const SweepKernels* k : VariantKernels()) {
    for (std::size_t n : kLiveCounts) {
      for (std::size_t x_len :
           {std::size_t{0}, std::size_t{3}, std::size_t{40},
            std::size_t{1} << 20, std::size_t{1} << 40}) {
        std::vector<std::uint32_t> lens(n);
        for (std::size_t i = 0; i < n; ++i) {
          switch (rng() % 4) {
            case 0: lens[i] = static_cast<std::uint32_t>(rng() % 64); break;
            case 1: lens[i] = 0; break;
            case 2: lens[i] = 0xFFFFFFFFu; break;  // full u32 range
            default: lens[i] = static_cast<std::uint32_t>(rng()); break;
          }
        }
        // +1 keeps data() non-null at n = 0 (memcmp is declared nonnull).
        std::vector<double> ref(n + 1), got(n + 1);
        ScalarSweepKernels().fill_absdiff_bounds(x_len, lens.data(), n,
                                                 ref.data());
        k->fill_absdiff_bounds(x_len, lens.data(), n, got.data());
        EXPECT_EQ(std::memcmp(ref.data(), got.data(), n * sizeof(double)), 0)
            << k->name << " n=" << n << " x_len=" << x_len;
      }
    }
  }
}

TEST(SweepKernelTest, EliminateAndCompactMatchesScalarBitwise) {
  std::mt19937_64 rng(0xC0FFEE);
  std::uniform_real_distribution<double> value(0.0, 8.0);
  for (const SweepKernels* k : VariantKernels()) {
    for (std::size_t live : kLiveCounts) {
      for (int trial = 0; trial < 24; ++trial) {
        PackedInput ref, got;
        MakePacked(rng, live, trial % 2 ? 11 : 0, &ref);
        CopyPacked(ref, live, &got);
        // Skip present (a live id), absent, or the "none" sentinel.
        std::uint32_t skip = 0xFFFFFFFFu;
        if (live > 0 && trial % 3 == 0) {
          skip = ref.idx.data()[rng() % live];
        } else if (trial % 3 == 1) {
          skip = 5;  // usually absent
        }
        const double bound = trial % 5 == 0 ? kInf : value(rng);
        const SweepCompactResult r0 = ScalarSweepKernels().eliminate_and_compact(
            ref.idx.data(), ref.lower.data(), live, skip, bound);
        const SweepCompactResult r1 = k->eliminate_and_compact(
            got.idx.data(), got.lower.data(), live, skip, bound);
        const std::string ctx = std::string(k->name) + " live=" +
                                std::to_string(live) + " trial=" +
                                std::to_string(trial);
        ExpectSameResult(r0, r1, ctx);
        ASSERT_EQ(r0.live, r1.live) << ctx;
        EXPECT_EQ(std::memcmp(ref.idx.data(), got.idx.data(),
                              r0.live * sizeof(std::uint32_t)),
                  0)
            << ctx;
        EXPECT_EQ(std::memcmp(ref.lower.data(), got.lower.data(),
                              r0.live * sizeof(double)),
                  0)
            << ctx;
      }
    }
  }
}

// The survivor stream's keys. Maps come from the stream's own constructor
// (so its guards for +inf, 0 and overflowing-scale seed bounds are what is
// tested) at 1, 7 and 2500 buckets. Bounds mix random survivors, the seed
// bound itself, its predecessor (where b * scale may round up to the bucket
// count), zeros and +inf slots (eliminated candidates and the pivots,
// which the sweeps lift to +inf in the dense slab).
TEST(SweepKernelTest, StreamKeysMatchScalarBitwise) {
  std::mt19937_64 rng(0x5EED5EED);
  const double seeds[] = {1.0,
                          0.3,
                          7.25,
                          kInf,
                          0.0,
                          std::numeric_limits<double>::denorm_min() * 3,
                          DBL_MAX};
  for (const SweepKernels* k : VariantKernels()) {
    for (double seed : seeds) {
      for (std::size_t slab : {8u, 56u, 20000u}) {
        std::vector<std::uint32_t> hist;
        const StreamBucketMap map = SurvivorStream(seed, slab, 1, hist).map();
        const double span = std::isfinite(seed) && seed > 0 ? seed : 4.0;
        std::uniform_real_distribution<double> value(0.0, 2.0 * span);
        for (std::size_t n : kLiveCounts) {
          std::vector<double> lower(n);
          for (double& b : lower) {
            switch (rng() % 6) {
              case 0: b = kInf; break;
              case 1: b = seed; break;
              case 2: b = std::nextafter(seed, 0.0); break;
              case 3: b = 0.0; break;
              default: b = value(rng); break;
            }
          }
          std::vector<std::uint32_t> want(n + 1, 7), got(n + 1, 7);
          ScalarSweepKernels().stream_keys(map, lower.data(), n, want.data());
          k->stream_keys(map, lower.data(), n, got.data());
          EXPECT_EQ(want, got) << k->name << " seed=" << seed
                               << " buckets=" << map.buckets << " n=" << n;
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_LE(want[i], map.buckets);
            ASSERT_EQ(want[i] == map.buckets, !(lower[i] < seed));
          }
        }
      }
    }
  }
}

TEST(SweepKernelTest, DispatchRoundTripAndForcedScalar) {
  KernelGuard guard;
  // Scalar is always available and forceable (the CI fallback contract).
  ASSERT_TRUE(SetActiveSweepKernels("scalar"));
  EXPECT_EQ(std::string_view(ActiveSweepKernels().name), "scalar");
  // Unknown names are rejected without changing the active variant.
  EXPECT_FALSE(SetActiveSweepKernels("avx512-unicorn"));
  EXPECT_EQ(std::string_view(ActiveSweepKernels().name), "scalar");
  // "auto" selects the fastest available variant (the last in the list).
  ASSERT_TRUE(SetActiveSweepKernels("auto"));
  EXPECT_EQ(std::string_view(ActiveSweepKernels().name),
            std::string_view(AvailableSweepKernels().back()->name));
  // Every listed variant is individually selectable.
  for (const SweepKernels* k : AvailableSweepKernels()) {
    EXPECT_TRUE(SetActiveSweepKernels(k->name)) << k->name;
    EXPECT_EQ(std::string_view(ActiveSweepKernels().name),
              std::string_view(k->name));
  }
}

// --- Quantized entries (search/table_quant.h) ------------------------------

constexpr TablePrecision kQuantPrecisions[] = {
    TablePrecision::kF32, TablePrecision::kF16, TablePrecision::kU8};

/// An encoded pivot table of `rows` rows plus the view the dispatch
/// helpers consume, each row quantized with its own meta; an f64 table is
/// viewed as it is.
struct QuantTable {
  std::vector<double> exact;
  std::vector<unsigned char> codes;
  std::vector<QuantRowMeta> meta;
  QuantTableView view;
};

QuantTable EncodeTable(TablePrecision prec, std::vector<double> values,
                       std::size_t rows) {
  QuantTable table;
  table.exact = std::move(values);
  if (prec == TablePrecision::kF64) {  // the exact table itself
    table.view.f64 = table.exact.data();
    return table;
  }
  const std::size_t n = rows == 0 ? 0 : table.exact.size() / rows;
  const std::size_t width = TablePrecisionBytes(prec);
  table.codes.resize(table.exact.size() * width + 8);
  table.meta.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    QuantRowEncoder enc;
    enc.Scan(table.exact.data() + r * n, n);
    enc.Prepare(prec);
    enc.Encode(table.exact.data() + r * n, n,
               table.codes.data() + r * n * width);
    table.meta[r] = enc.Finish();
  }
  table.view.precision = prec;
  table.view.q = table.codes.data();
  table.view.rows = table.meta.data();
  return table;
}

/// One encoded pivot row.
QuantTable EncodeRow(TablePrecision prec, std::vector<double> values) {
  return EncodeTable(prec, std::move(values), 1);
}

TEST(SweepKernelTest, QuantizedUpdateLowerDenseMatchesScalarBitwise) {
  std::mt19937_64 rng(0x5CA1AB1E);
  std::uniform_real_distribution<double> value(0.0, 8.0);
  for (const SweepKernels* k : VariantKernels()) {
    for (TablePrecision prec : kQuantPrecisions) {
      for (std::size_t n : kLiveCounts) {
        for (int trial = 0; trial < 8; ++trial) {
          std::vector<double> exact(n);
          for (double& v : exact) {
            v = trial % 4 == 0 ? 2.5 : value(rng);  // duplicate-row case
          }
          const QuantTable row = EncodeRow(prec, exact);
          AlignedBuffer<double> ref, got;
          ref.resize(n + 4);
          got.resize(n + 4);
          for (std::size_t i = 0; i < n; ++i) {
            ref.data()[i] = rng() % 16 == 0 ? kInf : value(rng);
            got.data()[i] = ref.data()[i];
          }
          const double d = value(rng);
          QuantUpdateLowerDense(ScalarSweepKernels(), row.view, 0, n, d,
                                ref.data());
          QuantUpdateLowerDense(*k, row.view, 0, n, d, got.data());
          EXPECT_EQ(std::memcmp(ref.data(), got.data(), n * sizeof(double)),
                    0)
              << k->name << " " << TablePrecisionName(prec) << " n=" << n
              << " trial=" << trial;
        }
      }
    }
  }
}

// The blocked row application (`update_lower_rows`) for every group size
// (zero included: no slab is touched), row count and precision: each
// available variant leaves exactly the bits the scalar entry leaves, and
// the scalar entry the bits of the per-row dense calls, query by query and
// row by row. Widths cover every block
// remainder up to 67 lanes and three larger ones; 33 rows cross a row
// chunk. The rows repeat ranks; the bounds mix +inf, zeros and exact ties
// with the first row's bound, and each query's first d is a table value
// (a zero difference).
TEST(SweepKernelTest, UpdateLowerRowsMatchesScalarAndPerRowBitwise) {
  std::mt19937_64 rng(0xB10C4ED);
  std::uniform_real_distribution<double> value(0.0, 8.0);
  std::vector<std::size_t> widths;
  for (std::size_t n = 0; n <= 67; ++n) widths.push_back(n);
  for (std::size_t n : {128u, 129u, 257u}) widths.push_back(n);
  const TablePrecision precisions[] = {TablePrecision::kF64,
                                       TablePrecision::kF32,
                                       TablePrecision::kF16,
                                       TablePrecision::kU8};
  for (TablePrecision prec : precisions) {
    for (std::size_t n : widths) {
      for (std::size_t rows : {0u, 1u, 2u, 7u, 32u, 33u}) {
        for (std::size_t queries = 0; queries <= kMaxRowQueries; ++queries) {
          const std::size_t table_rows = rows + 3;
          std::vector<double> exact(table_rows * n);
          for (double& v : exact) v = rng() % 8 == 0 ? 2.5 : value(rng);
          const QuantTable table = EncodeTable(prec, exact, table_rows);
          std::vector<std::size_t> ranks(rows);
          for (std::size_t& r : ranks) r = rng() % table_rows;
          std::vector<double> d(rows * queries);
          for (double& v : d) v = value(rng);
          if (rows > 0 && n > 0) {
            for (std::size_t b = 0; b < queries; ++b) {
              d[b] = exact[ranks[0] * n + rng() % n];
            }
          }
          // Slab b + 1 of `want` (+4 pad) holds query b; slab 0 is scratch.
          std::vector<AlignedBuffer<double>> want(queries + 1);
          for (auto& slab : want) slab.resize(n + 4);
          for (std::size_t b = 0; b < queries; ++b) {
            double* tie = want[0].data();
            for (std::size_t i = 0; i < n; ++i) tie[i] = 0.0;
            if (rows > 0) {
              QuantUpdateLowerDense(ScalarSweepKernels(), table.view,
                                    ranks[0], n, d[b], tie);
            }
            for (std::size_t i = 0; i < n; ++i) {
              switch (rng() % 5) {
                case 0: want[b + 1].data()[i] = kInf; break;
                case 1: want[b + 1].data()[i] = 0.0; break;
                case 2: want[b + 1].data()[i] = tie[i]; break;
                default: want[b + 1].data()[i] = value(rng); break;
              }
            }
          }
          std::vector<AlignedBuffer<double>> start(queries);
          for (std::size_t b = 0; b < queries; ++b) {
            start[b].resize(n + 4);
            std::copy(want[b + 1].data(), want[b + 1].data() + n,
                      start[b].data());
          }
          for (std::size_t b = 0; b < queries; ++b) {
            for (std::size_t r = 0; r < rows; ++r) {
              QuantUpdateLowerDense(ScalarSweepKernels(), table.view,
                                    ranks[r], n, d[r * queries + b],
                                    want[b + 1].data());
            }
          }
          for (const SweepKernels* k : AvailableSweepKernels()) {
            std::vector<AlignedBuffer<double>> got(queries);
            double* lower[kMaxRowQueries];
            for (std::size_t b = 0; b < queries; ++b) {
              got[b].resize(n + 4);
              std::copy(start[b].data(), start[b].data() + n, got[b].data());
              lower[b] = got[b].data();
            }
            k->update_lower_rows(table.view, ranks.data(), rows, d.data(),
                                 queries, lower, n);
            for (std::size_t b = 0; b < queries; ++b) {
              ASSERT_EQ(std::memcmp(want[b + 1].data(), got[b].data(),
                                    n * sizeof(double)),
                        0)
                  << k->name << " " << TablePrecisionName(prec)
                  << " n=" << n << " rows=" << rows
                  << " queries=" << queries << " b=" << b;
            }
          }
        }
      }
    }
  }
}

// The reference sweep's packed row update (`PackedRowUpdate`,
// tests/packed_row_update.h) must leave at each packed entry the bits that
// every variant's dense update leaves at that entry's id. Random packed
// slabs over a row that starts at segment base `base`; the dense slab
// holds the packed bounds at their ids and random bounds elsewhere.
void ExpectPackedMatchesDense(TablePrecision prec, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> value(0.0, 8.0);
  std::vector<std::size_t> lives(std::begin(kLiveCounts),
                                 std::end(kLiveCounts));
  lives.push_back(4099);  // a large slab: many blocks of every lane width
  for (const SweepKernels* k : AvailableSweepKernels()) {
    for (std::size_t live : lives) {
      for (std::uint32_t base : {0u, 7u, 129u}) {
        PackedInput packed;
        MakePacked(rng, live, base, &packed);
        const std::uint32_t* idx = packed.idx.data();
        const std::size_t n = (live > 0 ? idx[live - 1] - base : 0) + 1;
        std::vector<double> exact(n);
        for (double& v : exact) v = value(rng);
        const QuantTable row = EncodeRow(prec, exact);
        AlignedBuffer<double> dense;
        dense.resize(n);
        for (std::size_t i = 0; i < n; ++i) dense.data()[i] = value(rng);
        for (std::size_t r = 0; r < live; ++r) {
          dense.data()[idx[r] - base] = packed.lower.data()[r];
        }
        const double d = value(rng);
        QuantUpdateLowerDense(*k, row.view, 0, n, d, dense.data());
        PackedRowUpdate(row.view, 0, n, d, idx, base, packed.lower.data(),
                        live);
        for (std::size_t r = 0; r < live; ++r) {
          const double want = dense.data()[idx[r] - base];
          ASSERT_EQ(std::memcmp(&want, &packed.lower.data()[r],
                                sizeof(double)),
                    0)
              << k->name << " " << TablePrecisionName(prec)
              << " live=" << live << " base=" << base << " r=" << r;
        }
      }
    }
  }
}

TEST(SweepKernelTest, UpdateLowerPackedMatchesScalarBitwise) {
  ExpectPackedMatchesDense(TablePrecision::kF64, 0xBADF00D);
}

TEST(SweepKernelTest, QuantizedUpdateLowerPackedMatchesScalarBitwise) {
  for (TablePrecision prec : kQuantPrecisions) {
    ExpectPackedMatchesDense(prec, 0x0DDBA11);
  }
}

// The property the whole quantization scheme rests on: every quantized
// tightening is an ADMISSIBLE lower bound — g_q <= |d - t| elementwise for
// the exact table entry t, for every precision and every kernel variant.
// Checked on rows spanning narrow, wide, constant and near-zero ranges and
// on query distances inside, outside and far outside the row's range.
//
// The inequality is exact in real arithmetic; the kernels' correctly
// rounded ops can carry it over by ulps of the operands (the u8 arm
// regroups (offset + c*scale) - d as c*scale - (d - offset)), which the
// encoder's gap inflation bounds far below the separation between distinct
// distance values (table_quant.cc, InflateGap). The assertion allows
// exactly that documented ulp-scale slack and nothing more.
TEST(SweepKernelTest, QuantizedBoundsAreAdmissible) {
  std::mt19937_64 rng(0xADA151B1);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const double kSpans[] = {1e-9, 0.013, 1.0, 97.0, 4096.0};
  for (const SweepKernels* k : AvailableSweepKernels()) {
    for (TablePrecision prec : kQuantPrecisions) {
      for (double span : kSpans) {
        for (int trial = 0; trial < 12; ++trial) {
          const std::size_t n = 1 + rng() % 96;
          const double lo = unit(rng) * 10.0;
          std::vector<double> exact(n);
          for (double& v : exact) {
            v = trial % 5 == 0 ? lo : lo + unit(rng) * span;  // constant rows
          }
          const QuantTable row = EncodeRow(prec, exact);
          AlignedBuffer<double> lower;
          lower.resize(n + 4);
          const double d = trial % 3 == 0 ? unit(rng) * 3.0 * span
                                          : lo + unit(rng) * span;
          for (std::size_t i = 0; i < n; ++i) lower.data()[i] = 0.0;
          QuantUpdateLowerDense(*k, row.view, 0, n, d, lower.data());
          for (std::size_t i = 0; i < n; ++i) {
            const double slack =
                16.0 * DBL_EPSILON * (std::abs(d) + std::abs(exact[i]));
            EXPECT_LE(lower.data()[i], std::abs(d - exact[i]) + slack)
                << k->name << " " << TablePrecisionName(prec)
                << " span=" << span << " trial=" << trial << " i=" << i
                << " t=" << exact[i] << " d=" << d;
          }
        }
      }
    }
  }
}

TEST(SweepKernelIndexTest, FlatIndexBitIdenticalAcrossKernels) {
  PathMatrix m;
  m.protos = Words(220, 20260731);
  Rng rng(4242);
  m.queries = MakeQueries(m.protos, 12, 2, Alphabet::Latin(), rng);
  m.distances = {"dE", "dYB", "dmax"};
  m.pivots = 7;
  m.kernels = true;
  m.entries = {Entry::kLazy, Entry::kRow};
  m.ks = {1, 3};
  RunPathMatrix(m);
}

TEST(SweepKernelIndexTest, ShardedIndexAndEngineBitIdenticalAcrossKernels) {
  PathMatrix m;
  m.protos = Words(180, 20260801);
  Rng rng(777);
  m.queries = MakeQueries(m.protos, 10, 2, Alphabet::Latin(), rng);
  m.distances = {"dE", "dYB"};
  m.shards = {1, 3, 4};
  m.kernels = true;
  m.entries = {Entry::kLazy, Entry::kRow, Entry::kBatch};
  m.ks = {1, 3};
  RunPathMatrix(m);
}

}  // namespace
}  // namespace cned
