#include "search/table_quant.h"

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace cned {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The largest non-negative finite binary16 code (65504.0).
constexpr std::uint16_t kMaxFiniteHalf = 0x7BFF;

/// A couple of ulps of headroom on a row gap: the kernels compute the
/// (d - v) - gap arm with two correctly rounded subtractions, so the
/// computed arm can exceed the real one by at most a few ulps. Inflating
/// the gap by the same margin keeps the computed bound at or below the
/// exact |d - t| everywhere the build saw — and any residual ulp-scale
/// overshoot is far below the separation between distinct distance values
/// (integer for d_E, rationals with >= 1/(len_a * len_b) gaps for the
/// normalised family), so it can never flip an elimination decision.
double InflateGap(double gap) {
  if (gap <= 0.0) return gap < 0.0 ? 0.0 : gap;
  gap *= 1.0 + 8.0 * DBL_EPSILON;
  gap = std::nextafter(gap, kInf);
  return gap;
}

}  // namespace

const char* TablePrecisionName(TablePrecision precision) {
  switch (precision) {
    case TablePrecision::kF64:
      return "f64";
    case TablePrecision::kF32:
      return "f32";
    case TablePrecision::kF16:
      return "f16";
    case TablePrecision::kU8:
      return "u8";
  }
  return "?";
}

bool ParseTablePrecision(std::string_view name, TablePrecision* out) {
  if (name == "f64") {
    *out = TablePrecision::kF64;
  } else if (name == "f32") {
    *out = TablePrecision::kF32;
  } else if (name == "f16") {
    *out = TablePrecision::kF16;
  } else if (name == "u8") {
    *out = TablePrecision::kU8;
  } else {
    return false;
  }
  return true;
}

std::size_t TablePrecisionBytes(TablePrecision precision) {
  switch (precision) {
    case TablePrecision::kF64:
      return 8;
    case TablePrecision::kF32:
      return 4;
    case TablePrecision::kF16:
      return 2;
    case TablePrecision::kU8:
      return 1;
  }
  return 8;
}

TablePrecision TablePrecisionFromCode(std::uint64_t code,
                                      const std::string& who) {
  if (code < 1 || code > 3) {
    throw std::runtime_error(who + ": bad table precision");
  }
  return static_cast<TablePrecision>(static_cast<std::uint32_t>(code));
}

TablePrecision DefaultTablePrecision() {
  const char* env = std::getenv("CNED_TABLE_PRECISION");
  if (env == nullptr || *env == '\0') return TablePrecision::kF64;
  TablePrecision precision = TablePrecision::kF64;
  if (!ParseTablePrecision(env, &precision)) {
    std::fprintf(stderr,
                 "cned: CNED_TABLE_PRECISION=%s is not a precision name "
                 "(f64, f32, f16, u8); using f64\n",
                 env);
    return TablePrecision::kF64;
  }
  return precision;
}

std::uint16_t DoubleToHalfRoundDown(double t) {
  if (!(t > 0.0)) return 0;  // t is a distance: >= 0, never NaN
  if (HalfToDouble(kMaxFiniteHalf) <= t) return kMaxFiniteHalf;
  // Non-negative half codes decode monotonically (subnormals, then
  // normals), so the largest code with decode <= t is a 15-step binary
  // search — build-time only, and obviously exact.
  std::uint16_t lo = 0, hi = kMaxFiniteHalf;  // decode(lo) <= t < decode(hi)
  while (hi - lo > 1) {
    const std::uint16_t mid = static_cast<std::uint16_t>((lo + hi) / 2);
    if (HalfToDouble(mid) <= t) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

float DoubleToFloatRoundDown(double t) {
  float f = static_cast<float>(t);  // round-to-nearest
  if (static_cast<double>(f) > t) {
    f = std::nextafterf(f, -std::numeric_limits<float>::infinity());
  }
  if (std::isinf(f)) f = FLT_MAX;  // t beyond float range: saturate
  return f;
}

void QuantRowEncoder::Scan(const double* values, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double v = values[i];
    if (!scanned_any_) {
      lo_ = hi_ = v;
      scanned_any_ = true;
    } else {
      if (v < lo_) lo_ = v;
      if (v > hi_) hi_ = v;
    }
  }
}

void QuantRowEncoder::Prepare(TablePrecision precision) {
  precision_ = precision;
  prepared_ = true;
  if (precision == TablePrecision::kU8) {
    meta_.offset = scanned_any_ ? lo_ : 0.0;
    const double range = scanned_any_ ? hi_ - lo_ : 0.0;
    meta_.scale = range > 0.0 ? range / 255.0 : 0.0;
  }
}

void QuantRowEncoder::Encode(const double* values, std::size_t n, void* out) {
  if (!prepared_) {
    throw std::logic_error("QuantRowEncoder: Encode before Prepare");
  }
  auto track = [this](double residual) {
    if (residual > meta_.gap) meta_.gap = residual;
  };
  switch (precision_) {
    case TablePrecision::kF64:
      throw std::logic_error("QuantRowEncoder: f64 rows are not encoded");
    case TablePrecision::kF32: {
      float* o = static_cast<float*>(out);
      for (std::size_t i = 0; i < n; ++i) {
        const float v = DoubleToFloatRoundDown(values[i]);
        o[i] = v;
        track(values[i] - static_cast<double>(v));
      }
      return;
    }
    case TablePrecision::kF16: {
      std::uint16_t* o = static_cast<std::uint16_t*>(out);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint16_t h = DoubleToHalfRoundDown(values[i]);
        o[i] = h;
        track(values[i] - HalfToDouble(h));
      }
      return;
    }
    case TablePrecision::kU8: {
      std::uint8_t* o = static_cast<std::uint8_t*>(out);
      const double scale = meta_.scale;
      const double offset = meta_.offset;
      // The decoded value as the kernels effectively see it: one rounded
      // multiply (the per-lane code * scale) plus the row offset. The
      // round-then-fix-up loop below enforces decode <= t against THIS
      // arithmetic, not against real-number division.
      auto decode = [&](int c) {
        return offset + static_cast<double>(c) * scale;
      };
      for (std::size_t i = 0; i < n; ++i) {
        const double t = values[i];
        int c = 0;
        if (scale > 0.0) {
          double guess = (t - offset) / scale;
          if (guess < 0.0) guess = 0.0;
          if (guess > 255.0) guess = 255.0;
          c = static_cast<int>(guess);
          while (c > 0 && decode(c) > t) --c;
          while (c < 255 && decode(c + 1) <= t) ++c;
        }
        o[i] = static_cast<std::uint8_t>(c);
        track(t - decode(c));
      }
      return;
    }
  }
}

QuantRowMeta QuantRowEncoder::Finish() const {
  QuantRowMeta m = meta_;
  m.gap = InflateGap(m.gap);
  return m;
}

}  // namespace cned
