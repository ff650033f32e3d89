#include "search/sweep_kernel.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/cpu_features.h"
#include "common/dp_workspace.h"
#include "core/contextual.h"
#include "search/table_quant.h"  // HalfToDouble: the shared exact f16 decode

namespace cned {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels. These are the semantics — the ISA variants are
// differentially tested against them bit for bit (tests/sweep_kernel_test,
// bench/micro_sweep_kernel), and they double as the portable fallback and
// the CNED_SWEEP_KERNEL=scalar ablation row.
// ---------------------------------------------------------------------------

void ScalarUpdateLowerDense(double d, const double* row, double* lower,
                            std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double g = std::abs(d - row[i]);
    if (g > lower[i]) lower[i] = g;
  }
}

void ScalarUpdateLowerDenseF32(double d, const float* row, double gap,
                               double* lower, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double diff = static_cast<double>(row[i]) - d;
    const double g = QuantArmMax(diff, gap);
    if (g > lower[i]) lower[i] = g;
  }
}

void ScalarUpdateLowerDenseF16(double d, const std::uint16_t* row, double gap,
                               double* lower, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double diff = HalfToDouble(row[i]) - d;
    const double g = QuantArmMax(diff, gap);
    if (g > lower[i]) lower[i] = g;
  }
}

void ScalarUpdateLowerDenseU8(double d, const std::uint8_t* row, double scale,
                              double offset, double gap, double* lower,
                              std::size_t n) {
  const double dq = d - offset;  // once per call, shared by every lane
  for (std::size_t i = 0; i < n; ++i) {
    const double m = static_cast<double>(row[i]) * scale;
    const double diff = m - dq;
    const double g = QuantArmMax(diff, gap);
    if (g > lower[i]) lower[i] = g;
  }
}

void ScalarUpdateLowerRows(const QuantTableView& table,
                           const std::size_t* ranks, std::size_t rows,
                           const double* d, std::size_t queries,
                           double* const* lower, std::size_t n) {
  for (std::size_t b = 0; b < queries; ++b) {
    for (std::size_t r = 0; r < rows; ++r) {
      QuantUpdateLowerDense(ScalarSweepKernels(), table, ranks[r], n,
                            d[r * queries + b], lower[b]);
    }
  }
}

void ScalarFillAbsDiffBounds(std::size_t x_len, const std::uint32_t* y_lens,
                             std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t y = y_lens[i];
    out[i] = x_len > y ? static_cast<double>(x_len - y)
                       : static_cast<double>(y - x_len);
  }
}

SweepCompactResult ScalarEliminateAndCompact(std::uint32_t* idx, double* lower,
                                             std::size_t live,
                                             std::uint32_t skip,
                                             double bound) {
  SweepCompactResult out;
  std::size_t write = 0;
  for (std::size_t r = 0; r < live; ++r) {
    const std::uint32_t u = idx[r];
    if (u == skip) continue;  // just visited: drop from the candidate set
    const double lb = lower[r];
    if (lb >= bound) continue;  // can at most tie: eliminated
    idx[write] = u;
    lower[write] = lb;
    ++write;
    if (lb < out.next_key) {
      out.next_key = lb;
      out.next = u;
    }
  }
  out.live = write;
  return out;
}

void ScalarStreamKeys(const StreamBucketMap& map, const double* lower,
                      std::size_t n, std::uint32_t* keys) {
  for (std::size_t i = 0; i < n; ++i) keys[i] = map.Key(lower[i]);
}

// Row by row: row i holds the diamond's columns
// [i - below, i + above] clipped to [0, n], and the one cell past each
// row's end reads as kPackedOutside.
std::uint64_t ScalarContextualDiamond(std::string_view x, std::string_view y,
                                      std::size_t e, DpWorkspace& ws) {
  const std::size_t m = x.size(), n = y.size();
  const std::size_t below = (e + m - n) / 2;  // the largest i - j
  const std::size_t above = (e + n - m) / 2;  // the largest j - i
  ws.packed_lines[0].resize(n + 1);
  ws.packed_lines[1].resize(n + 1);
  std::uint64_t* cur = ws.packed_lines[0].data();
  std::uint64_t* prev = ws.packed_lines[1].data();

  {
    const std::size_t jhi = std::min(n, above);
    for (std::size_t j = 0; j <= jhi; ++j) prev[j] = j * kPackedIndel;
    if (jhi < n) prev[jhi + 1] = kPackedOutside;
  }
  for (std::size_t i = 1; i <= m; ++i) {
    const std::size_t jlo = i > below ? i - below : 0;
    const std::size_t jhi = std::min(n, i + above);
    const char xi = x[i - 1];
    std::uint64_t left = kPackedOutside;
    std::size_t j = jlo;
    if (j == 0) {
      left = cur[0] = i * kPackedIndel;  // deletions only
      j = 1;
    }
    for (; j <= jhi; ++j) {
      const std::uint64_t mismatch = xi != y[j - 1];
      std::uint64_t v = prev[j - 1] + (kPackedSubst & (0 - mismatch));
      v = std::min(v, prev[j] + kPackedIndel);
      v = std::min(v, left + kPackedIndel);
      cur[j] = left = v;
    }
    if (jhi < n) cur[jhi + 1] = kPackedOutside;
    std::swap(cur, prev);
  }
  return prev[n];
}

// "Minus infinity" for the insertion-count DP. Far enough from INT32_MIN
// that adding +1 per layer (at most |x|+|y| times) cannot wrap.
constexpr std::int32_t kLayerNegInf =
    std::numeric_limits<std::int32_t>::min() / 4;

// Algorithm 1 one layer at a time, band-limited — at layer k a cell (i, j)
// is reachable only when |i - j| <= k, because insertions minus deletions
// along the prefix equals j - i while their sum is at most k — and handing
// each layer's final cell to the scan as soon as it is filled, so the loop
// stops once the scan closes.
//
// Buffer invariant: cells outside a layer's band are kLayerNegInf. It holds
// at the start (both planes are filled with kLayerNegInf) and is preserved
// because layer k writes exactly the band |i - j| <= k into the plane that
// held layer k-2 (whose untouched cells satisfy |i - j| > k-2 and were
// kLayerNegInf by induction). Reads reach at most one cell outside the
// previous layer's band in each direction, which the invariant covers.
ContextualResult ScalarContextualLayers(std::string_view x, std::string_view y,
                                        double bound, std::size_t /*e*/,
                                        DpWorkspace& ws) {
  const std::size_t m = x.size(), n = y.size();
  const std::size_t width = n + 1;
  const std::size_t kmax = m + n;
  ContextualLayerScan scan(m, n, bound);
  ws.layer_a.assign((m + 1) * width, kLayerNegInf);
  ws.layer_b.assign((m + 1) * width, kLayerNegInf);
  std::vector<std::int32_t>* prev = &ws.layer_a;
  std::vector<std::int32_t>* cur = &ws.layer_b;

  (*prev)[0] = 0;
  {
    bool prefix_eq = true;
    for (std::size_t t = 1; t <= std::min(m, n) && prefix_eq; ++t) {
      prefix_eq = (x[t - 1] == y[t - 1]);
      if (prefix_eq) (*prev)[t * width + t] = 0;
    }
  }
  ws.contextual_cells += std::min(m, n) + 1;
  scan.Consider(0, (*prev)[m * width + n]);

  for (std::size_t k = 1; k <= kmax && scan.Open(k); ++k) {
    // Row 0: insertion-only cells, band j <= k.
    {
      std::int32_t* cur_row = cur->data();
      const std::int32_t* prev_row = prev->data();
      cur_row[0] = kLayerNegInf;
      const std::size_t jhi = std::min(n, k);
      for (std::size_t j = 1; j <= jhi; ++j) {
        cur_row[j] = prev_row[j - 1] + 1;
      }
      ws.contextual_cells += jhi + 1;
    }
    for (std::size_t i = 1; i <= m; ++i) {
      const std::size_t jlo = i > k ? i - k : 0;
      const std::size_t jhi = std::min(n, i + k);
      if (jlo > jhi) continue;  // row entirely outside the band (i > n + k)
      const char xi = x[i - 1];
      const std::int32_t* prev_up = &(*prev)[(i - 1) * width];
      const std::int32_t* prev_row = &(*prev)[i * width];
      std::int32_t* cur_row = &(*cur)[i * width];
      const std::int32_t* cur_up = &(*cur)[(i - 1) * width];
      std::size_t j = jlo;
      if (j == 0) {
        cur_row[0] = prev_up[0];  // deletion only
        j = 1;
      }
      for (; j <= jhi; ++j) {
        std::int32_t v = (xi == y[j - 1]) ? cur_up[j - 1] : prev_up[j - 1];
        v = std::max(v, prev_up[j]);
        v = std::max(v, prev_row[j - 1] + 1);
        cur_row[j] = v;
      }
      ws.contextual_cells += jhi - jlo + 1;
    }
    scan.Consider(k, (*cur)[m * width + n]);
    std::swap(prev, cur);
  }
  return scan.result();
}

}  // namespace

const SweepKernels& ScalarSweepKernels() {
  static const SweepKernels kScalar = [] {
    SweepKernels k{};
    k.name = "scalar";
    k.update_lower_dense = ScalarUpdateLowerDense;
    k.update_lower_dense_f32 = ScalarUpdateLowerDenseF32;
    k.update_lower_dense_f16 = ScalarUpdateLowerDenseF16;
    k.update_lower_dense_u8 = ScalarUpdateLowerDenseU8;
    k.update_lower_rows = ScalarUpdateLowerRows;
    k.fill_absdiff_bounds = ScalarFillAbsDiffBounds;
    k.eliminate_and_compact = ScalarEliminateAndCompact;
    k.stream_keys = ScalarStreamKeys;
    k.contextual_diamond = ScalarContextualDiamond;
    k.contextual_layers = ScalarContextualLayers;
    return k;
  }();
  return kScalar;
}

// Defined in the AVX2 translation unit, which CMake compiles with -mavx2
// only for x86 targets.
#if defined(CNED_SWEEP_AVX2)
const SweepKernels& Avx2SweepKernels();
#endif

std::vector<const SweepKernels*> AvailableSweepKernels() {
  std::vector<const SweepKernels*> kernels{&ScalarSweepKernels()};
#if defined(CNED_SWEEP_AVX2)
  if (CpuHasAvx2()) kernels.push_back(&Avx2SweepKernels());
#endif
  return kernels;
}

namespace {

const SweepKernels* FindKernels(std::string_view name) {
  for (const SweepKernels* k : AvailableSweepKernels()) {
    if (name == k->name) return k;
  }
  return nullptr;
}

const SweepKernels* BestKernels() { return AvailableSweepKernels().back(); }

const SweepKernels* ResolveStartupKernels() {
  const char* env = std::getenv("CNED_SWEEP_KERNEL");
  if (env == nullptr || *env == '\0' ||
      std::string_view(env) == std::string_view("auto")) {
    return BestKernels();
  }
  if (const SweepKernels* k = FindKernels(env)) return k;
  std::fprintf(stderr,
               "cned: CNED_SWEEP_KERNEL=%s is not available on this "
               "build/CPU; using the scalar sweep kernels\n",
               env);
  return &ScalarSweepKernels();
}

std::atomic<const SweepKernels*> g_active{nullptr};

}  // namespace

const SweepKernels& ActiveSweepKernels() {
  const SweepKernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    // Benign race: ResolveStartupKernels is deterministic, so concurrent
    // first calls store the same pointer.
    k = ResolveStartupKernels();
    g_active.store(k, std::memory_order_release);
  }
  return *k;
}

bool SetActiveSweepKernels(std::string_view name) {
  const SweepKernels* k =
      name == std::string_view("auto") ? BestKernels() : FindKernels(name);
  if (k == nullptr) return false;
  g_active.store(k, std::memory_order_release);
  return true;
}

SweepScratch& TlsSweepScratch() {
  thread_local SweepScratch scratch;
  return scratch;
}

// Histogram counters per stream, over all segments.
constexpr std::size_t kMaxStreamHistogram = 4096;

// Slab entries per bucket the map aims for: n / kStreamBucketLoad buckets.
// Measured on a 20k-word dictionary, loads of 4 to 32 sweep alike.
constexpr std::size_t kStreamBucketLoad = 8;

// Keys are computed a chunk at a time by the dispatched `stream_keys`
// before the chunk's counters are touched.
constexpr std::size_t kKeyChunk = 256;

SurvivorStream::SurvivorStream(double seed_bound, std::size_t n,
                               std::size_t segments,
                               std::vector<std::uint32_t>& hist)
    : segments_(segments) {
  const std::size_t per_row = kMaxStreamHistogram / segments_;
  const std::size_t want = n / kStreamBucketLoad;
  map_.buckets = static_cast<std::uint32_t>(
      std::max<std::size_t>(1, std::min(want, per_row > 1 ? per_row - 1 : 1)));
  map_.seed_bound = seed_bound;
  map_.top = static_cast<double>(map_.buckets - 1);
  // +inf leaves scale 0; 0, NaN and an overflowing scale are guarded to 0.
  const double scale = static_cast<double>(map_.buckets) / seed_bound;
  if (seed_bound > 0.0 && std::isfinite(scale)) map_.scale = scale;
  hist.assign(segments_ * (map_.buckets + 1), 0);
  hist_ = hist.data();
}

void SurvivorStream::Count(std::size_t g, const double* lower,
                           std::size_t n) {
  const SweepKernels& kern = ActiveSweepKernels();
  std::uint32_t* row = Row(g);
  std::uint32_t keys[kKeyChunk];
  for (std::size_t j0 = 0; j0 < n; j0 += kKeyChunk) {
    const std::size_t m = std::min(kKeyChunk, n - j0);
    kern.stream_keys(map_, lower + j0, m, keys);
    for (std::size_t i = 0; i < m; ++i) ++row[keys[i]];
  }
}

std::size_t SurvivorStream::Place() {
  std::uint32_t total = 0;
  for (std::uint32_t b = 0; b <= map_.buckets; ++b) {
    for (std::size_t g = 0; g < segments_; ++g) {
      std::uint32_t& c = Row(g)[b];
      const std::uint32_t count = c;
      c = total;
      total += count;
    }
  }
  // The overflow bucket starts where the survivors end.
  return Row(0)[map_.buckets];
}

void SurvivorStream::Scatter(std::size_t g, const double* lower,
                             std::size_t n, std::size_t base,
                             std::uint32_t* idx) {
  const SweepKernels& kern = ActiveSweepKernels();
  std::uint32_t* row = Row(g);
  std::uint32_t keys[kKeyChunk];
  for (std::size_t j0 = 0; j0 < n; j0 += kKeyChunk) {
    const std::size_t m = std::min(kKeyChunk, n - j0);
    kern.stream_keys(map_, lower + j0, m, keys);
    const auto first = static_cast<std::uint32_t>(base + j0);
    for (std::size_t i = 0; i < m; ++i) {
      idx[row[keys[i]]++] = first + static_cast<std::uint32_t>(i);
    }
  }
}

std::size_t SurvivorStream::After(std::uint32_t* idx, const double* lower,
                                  std::size_t id, std::uint32_t* sorted) {
  const std::uint32_t* ends = Row(segments_ - 1);
  const auto start = [ends](std::uint32_t b) {
    return b == 0 ? 0 : ends[b - 1];
  };
  const auto before = [lower](std::uint32_t a, std::uint32_t b) {
    return lower[a] < lower[b] || (lower[a] == lower[b] && a < b);
  };
  // Sorts every bucket that starts at or before position r.
  const auto sort_to = [&](std::uint32_t r) {
    for (; *sorted < map_.buckets && start(*sorted) <= r; ++*sorted) {
      std::sort(idx + start(*sorted), idx + ends[*sorted], before);
    }
  };
  std::uint32_t r = 0;
  if (id != kSweepNone) {
    const std::uint32_t b = map_.Key(lower[id]);
    // Keys are monotone in the bound: every survivor of an earlier bucket
    // lies before `id`, every one of a later bucket after it.
    if (b == map_.buckets) return ends[b - 1];
    sort_to(start(b));
    const auto id32 = static_cast<std::uint32_t>(id);
    r = static_cast<std::uint32_t>(
        std::upper_bound(idx + start(b), idx + ends[b], id32, before) - idx);
  }
  sort_to(r);
  return r;
}

void ApplyTombstoneMask(const std::uint64_t* bits, std::size_t n,
                        double* lower) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::size_t w = 0; w < TombstoneWords(n); ++w) {
    std::uint64_t word = bits[w];
    while (word != 0) {
      const unsigned bit = static_cast<unsigned>(__builtin_ctzll(word));
      lower[(w << 6) + bit] = kInf;
      word &= word - 1;
    }
  }
}

}  // namespace cned
