#ifndef CNED_DISTANCES_NORMALIZED_H_
#define CNED_DISTANCES_NORMALIZED_H_

#include <string>
#include <string_view>

#include "distances/distance.h"

namespace cned {

/// d_sum(x,y) = d_E(x,y) / (|x|+|y|); zero for two empty strings.
/// NOT a metric — the paper's counterexample (ab, aba, ba) is reproduced in
/// the tests and the metric-violation bench.
double DsumDistance(std::string_view x, std::string_view y);

/// d_max(x,y) = d_E(x,y) / max(|x|,|y|); zero for two empty strings.
/// NOT a metric (same counterexample family). Despite that, it obtains the
/// best classification rate in the paper's Table 2.
double DmaxDistance(std::string_view x, std::string_view y);

/// d_min(x,y) = d_E(x,y) / min(|x|,|y|); when one string is empty the paper
/// leaves it undefined — we return d_E/max(...,1) conventionally so the value
/// is finite. NOT a metric: counterexample (b, ba, aa).
double DminDistance(std::string_view x, std::string_view y);

/// Yujian & Bo's normalised metric
///   d_YB(x,y) = 2 d_E / (|x| + |y| + d_E).
/// Ranges in [0,1] and is a proven metric.
double DybDistance(std::string_view x, std::string_view y);

/// Bounded-evaluation variants (`StringDistance::DistanceBounded` contract:
/// exact when the true value is < `bound`, else any value >= `bound`). All
/// four normalisations are monotone in d_E for fixed lengths, so the bound
/// maps onto a bound on d_E, which `LevenshteinDistanceBounded`
/// (distances/levenshtein.h) turns into the bit-parallel kernel's integer
/// band. The unbounded forms run `MyersLevenshtein` (distances/myers.h).
double DsumDistanceBounded(std::string_view x, std::string_view y,
                           double bound);
double DmaxDistanceBounded(std::string_view x, std::string_view y,
                           double bound);
double DminDistanceBounded(std::string_view x, std::string_view y,
                           double bound);
double DybDistanceBounded(std::string_view x, std::string_view y,
                          double bound);

/// Length-only lower bounds (d_E >= |len(x) - len(y)| pushed through each
/// normalisation, which is monotone in d_E for fixed lengths). All return 0
/// for two empty strings.
double DsumLengthLowerBound(std::size_t x_len, std::size_t y_len);
double DmaxLengthLowerBound(std::size_t x_len, std::size_t y_len);
double DminLengthLowerBound(std::size_t x_len, std::size_t y_len);
double DybLengthLowerBound(std::size_t x_len, std::size_t y_len);

/// `StringDistance` adapters.
class SumNormalizedDistance final : public StringDistance {
 public:
  double Distance(std::string_view x, std::string_view y) const override {
    return DsumDistance(x, y);
  }
  double DistanceBounded(std::string_view x, std::string_view y,
                         double bound) const override {
    return DsumDistanceBounded(x, y, bound);
  }
  double LengthLowerBound(std::size_t x_len, std::size_t y_len) const override {
    return DsumLengthLowerBound(x_len, y_len);
  }
  void LengthLowerBounds(std::size_t x_len, const std::uint32_t* y_lens,
                         std::size_t n, double* out) const override {
    FillLengthLowerBounds(DsumLengthLowerBound, x_len, y_lens, n, out);
  }
  std::string name() const override { return "dsum"; }
  bool is_metric() const override { return false; }
};

class MaxNormalizedDistance final : public StringDistance {
 public:
  double Distance(std::string_view x, std::string_view y) const override {
    return DmaxDistance(x, y);
  }
  double DistanceBounded(std::string_view x, std::string_view y,
                         double bound) const override {
    return DmaxDistanceBounded(x, y, bound);
  }
  double LengthLowerBound(std::size_t x_len, std::size_t y_len) const override {
    return DmaxLengthLowerBound(x_len, y_len);
  }
  void LengthLowerBounds(std::size_t x_len, const std::uint32_t* y_lens,
                         std::size_t n, double* out) const override {
    FillLengthLowerBounds(DmaxLengthLowerBound, x_len, y_lens, n, out);
  }
  std::string name() const override { return "dmax"; }
  bool is_metric() const override { return false; }
};

class MinNormalizedDistance final : public StringDistance {
 public:
  double Distance(std::string_view x, std::string_view y) const override {
    return DminDistance(x, y);
  }
  double DistanceBounded(std::string_view x, std::string_view y,
                         double bound) const override {
    return DminDistanceBounded(x, y, bound);
  }
  double LengthLowerBound(std::size_t x_len, std::size_t y_len) const override {
    return DminLengthLowerBound(x_len, y_len);
  }
  void LengthLowerBounds(std::size_t x_len, const std::uint32_t* y_lens,
                         std::size_t n, double* out) const override {
    FillLengthLowerBounds(DminLengthLowerBound, x_len, y_lens, n, out);
  }
  std::string name() const override { return "dmin"; }
  bool is_metric() const override { return false; }
};

class YujianBoDistance final : public StringDistance {
 public:
  double Distance(std::string_view x, std::string_view y) const override {
    return DybDistance(x, y);
  }
  double DistanceBounded(std::string_view x, std::string_view y,
                         double bound) const override {
    return DybDistanceBounded(x, y, bound);
  }
  double LengthLowerBound(std::size_t x_len, std::size_t y_len) const override {
    return DybLengthLowerBound(x_len, y_len);
  }
  void LengthLowerBounds(std::size_t x_len, const std::uint32_t* y_lens,
                         std::size_t n, double* out) const override {
    FillLengthLowerBounds(DybLengthLowerBound, x_len, y_lens, n, out);
  }
  std::string name() const override { return "dYB"; }
  bool is_metric() const override { return true; }
};

}  // namespace cned

#endif  // CNED_DISTANCES_NORMALIZED_H_
