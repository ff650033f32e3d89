#include "distances/normalized.h"

#include <algorithm>
#include <cmath>

#include "distances/levenshtein.h"

namespace cned {
namespace {

// All four normalisations are monotone non-decreasing in d_E for fixed
// string lengths, so a bound `b` on the normalised value maps to an integer
// threshold t on d_E: the value is < b iff d_E < t. Exactness is then only
// needed for d_E <= ceil(t)-1, which is exactly the Ukkonen band of
// BoundedLevenshtein; the truncated sentinel ceil(t) maps back to a
// normalised value >= b by the same monotonicity. Returns the (possibly
// truncated) d_E; a threshold <= 0 yields 0 (any mapped value is >= b),
// and a NaN threshold the exact d_E.
double EditDistanceForThreshold(std::string_view x, std::string_view y,
                                double threshold) {
  const double longer = static_cast<double>(std::max(x.size(), y.size()));
  if (threshold <= 0.0) return 0.0;
  if (!(threshold <= longer)) {
    // d_E <= longer < t, or a NaN threshold (an unbounded call): the exact
    // value is always needed.
    return static_cast<double>(LevenshteinDistance(x, y));
  }
  const auto band = static_cast<std::size_t>(std::ceil(threshold)) - 1;
  return static_cast<double>(BoundedLevenshtein(x, y, band));
}

}  // namespace

double DsumDistance(std::string_view x, std::string_view y) {
  if (x.empty() && y.empty()) return 0.0;
  return static_cast<double>(LevenshteinDistance(x, y)) /
         static_cast<double>(x.size() + y.size());
}

double DmaxDistance(std::string_view x, std::string_view y) {
  if (x.empty() && y.empty()) return 0.0;
  return static_cast<double>(LevenshteinDistance(x, y)) /
         static_cast<double>(std::max(x.size(), y.size()));
}

double DminDistance(std::string_view x, std::string_view y) {
  if (x.empty() && y.empty()) return 0.0;
  std::size_t denom = std::max<std::size_t>(std::min(x.size(), y.size()), 1);
  return static_cast<double>(LevenshteinDistance(x, y)) /
         static_cast<double>(denom);
}

double DybDistance(std::string_view x, std::string_view y) {
  if (x.empty() && y.empty()) return 0.0;
  double de = static_cast<double>(LevenshteinDistance(x, y));
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

double DsumDistanceBounded(std::string_view x, std::string_view y,
                           double bound) {
  if (x.empty() && y.empty()) return 0.0;
  // Length-difference early-out: skip even the threshold mapping when the
  // length-only bound already reaches the caller's bound.
  if (DsumLengthLowerBound(x.size(), y.size()) >= bound) return bound;
  const double denom = static_cast<double>(x.size() + y.size());
  return EditDistanceForThreshold(x, y, bound * denom) / denom;
}

double DmaxDistanceBounded(std::string_view x, std::string_view y,
                           double bound) {
  if (x.empty() && y.empty()) return 0.0;
  if (DmaxLengthLowerBound(x.size(), y.size()) >= bound) return bound;
  const double denom = static_cast<double>(std::max(x.size(), y.size()));
  return EditDistanceForThreshold(x, y, bound * denom) / denom;
}

double DminDistanceBounded(std::string_view x, std::string_view y,
                           double bound) {
  if (x.empty() && y.empty()) return 0.0;
  if (DminLengthLowerBound(x.size(), y.size()) >= bound) return bound;
  const double denom = static_cast<double>(
      std::max<std::size_t>(std::min(x.size(), y.size()), 1));
  return EditDistanceForThreshold(x, y, bound * denom) / denom;
}

double DybDistanceBounded(std::string_view x, std::string_view y,
                          double bound) {
  if (x.empty() && y.empty()) return 0.0;
  // d_YB = 2 d_E / (|x|+|y| + d_E) < 2 always; b >= 2 can never be reached.
  if (bound >= 2.0) return DybDistance(x, y);
  if (DybLengthLowerBound(x.size(), y.size()) >= bound) return bound;
  const double len = static_cast<double>(x.size() + y.size());
  // d_YB < b  <=>  d_E < b * (|x|+|y|) / (2 - b), and the mapping below is
  // monotone, so a truncated d_E >= threshold still lands >= b.
  const double de =
      EditDistanceForThreshold(x, y, bound * len / (2.0 - bound));
  return 2.0 * de / (len + de);
}

}  // namespace cned
