#include "distances/normalized.h"

#include <algorithm>

#include "distances/levenshtein.h"
#include "distances/myers.h"

namespace cned {

double DsumDistance(std::string_view x, std::string_view y) {
  if (x.empty() && y.empty()) return 0.0;
  return static_cast<double>(MyersLevenshtein(x, y)) /
         static_cast<double>(x.size() + y.size());
}

double DmaxDistance(std::string_view x, std::string_view y) {
  if (x.empty() && y.empty()) return 0.0;
  return static_cast<double>(MyersLevenshtein(x, y)) /
         static_cast<double>(std::max(x.size(), y.size()));
}

double DminDistance(std::string_view x, std::string_view y) {
  if (x.empty() && y.empty()) return 0.0;
  std::size_t denom = std::max<std::size_t>(std::min(x.size(), y.size()), 1);
  return static_cast<double>(MyersLevenshtein(x, y)) /
         static_cast<double>(denom);
}

double DybDistance(std::string_view x, std::string_view y) {
  if (x.empty() && y.empty()) return 0.0;
  double de = static_cast<double>(MyersLevenshtein(x, y));
  return 2.0 * de / (static_cast<double>(x.size() + y.size()) + de);
}

double DsumLengthLowerBound(std::size_t x_len, std::size_t y_len) {
  if (x_len == 0 && y_len == 0) return 0.0;
  const double gap =
      static_cast<double>(x_len > y_len ? x_len - y_len : y_len - x_len);
  return gap / static_cast<double>(x_len + y_len);
}

double DmaxLengthLowerBound(std::size_t x_len, std::size_t y_len) {
  if (x_len == 0 && y_len == 0) return 0.0;
  const double gap =
      static_cast<double>(x_len > y_len ? x_len - y_len : y_len - x_len);
  return gap / static_cast<double>(std::max(x_len, y_len));
}

double DminLengthLowerBound(std::size_t x_len, std::size_t y_len) {
  if (x_len == 0 && y_len == 0) return 0.0;
  const double gap =
      static_cast<double>(x_len > y_len ? x_len - y_len : y_len - x_len);
  return gap / static_cast<double>(
                   std::max<std::size_t>(std::min(x_len, y_len), 1));
}

double DybLengthLowerBound(std::size_t x_len, std::size_t y_len) {
  if (x_len == 0 && y_len == 0) return 0.0;
  // d_YB = 2 d_E / (|x|+|y|+d_E) is increasing in d_E; plug in d_E >= gap.
  const double gap =
      static_cast<double>(x_len > y_len ? x_len - y_len : y_len - x_len);
  return 2.0 * gap / (static_cast<double>(x_len + y_len) + gap);
}

namespace {

// All four normalisations are monotone non-decreasing in d_E for fixed
// string lengths, so a bound `b` on the normalised value maps to a
// threshold t on d_E: the value is < b iff d_E < t.
// `LevenshteinDistanceBounded` returns the exact d_E below t and the
// integer ceil(t) otherwise, and `value` (the normalisation's formula at
// these lengths) maps that back to a value >= b. Mapping t itself back
// could round below b. So can ceil(t) when t = b * denom rounds down onto
// an integer whose own value is still < b (e.g. b just above 1/258 on two
// 129-symbol strings gives t = 1); that d_E then needs exactness too, and
// the band grows by one.
template <typename Value>
double NormalizedBounded(std::string_view x, std::string_view y, double bound,
                         double threshold, Value value) {
  double de = LevenshteinDistanceBounded(x, y, threshold);
  while (de >= threshold && value(de) < bound) {
    threshold = de + 1.0;
    de = LevenshteinDistanceBounded(x, y, threshold);
  }
  return value(de);
}

}  // namespace

double DsumDistanceBounded(std::string_view x, std::string_view y,
                           double bound) {
  if (x.empty() && y.empty()) return 0.0;
  // Length-difference early-out: skip even the threshold mapping when the
  // length-only bound already reaches the caller's bound.
  if (DsumLengthLowerBound(x.size(), y.size()) >= bound) return bound;
  const double denom = static_cast<double>(x.size() + y.size());
  return NormalizedBounded(x, y, bound, bound * denom,
                           [denom](double de) { return de / denom; });
}

double DmaxDistanceBounded(std::string_view x, std::string_view y,
                           double bound) {
  if (x.empty() && y.empty()) return 0.0;
  if (DmaxLengthLowerBound(x.size(), y.size()) >= bound) return bound;
  const double denom = static_cast<double>(std::max(x.size(), y.size()));
  return NormalizedBounded(x, y, bound, bound * denom,
                           [denom](double de) { return de / denom; });
}

double DminDistanceBounded(std::string_view x, std::string_view y,
                           double bound) {
  if (x.empty() && y.empty()) return 0.0;
  if (DminLengthLowerBound(x.size(), y.size()) >= bound) return bound;
  const double denom = static_cast<double>(
      std::max<std::size_t>(std::min(x.size(), y.size()), 1));
  return NormalizedBounded(x, y, bound, bound * denom,
                           [denom](double de) { return de / denom; });
}

double DybDistanceBounded(std::string_view x, std::string_view y,
                          double bound) {
  if (x.empty() && y.empty()) return 0.0;
  // d_YB = 2 d_E / (|x|+|y| + d_E) < 2 always; b >= 2 can never be reached.
  if (bound >= 2.0) return DybDistance(x, y);
  if (DybLengthLowerBound(x.size(), y.size()) >= bound) return bound;
  const double len = static_cast<double>(x.size() + y.size());
  // d_YB < b  <=>  d_E < b * (|x|+|y|) / (2 - b).
  return NormalizedBounded(
      x, y, bound, bound * len / (2.0 - bound),
      [len](double de) { return 2.0 * de / (len + de); });
}

}  // namespace cned
