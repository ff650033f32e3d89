#include "distances/levenshtein.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/dp_workspace.h"
// Deliberate .cc-level reach into the search layer (both live in the one
// cned library, headers stay acyclic): the sweep-kernel table owns the
// dispatched |Δlen| fill, and dE's zeroth-pivot bound must come from the
// same dispatch point so a forced kernel variant governs the whole sweep.
#include "search/sweep_kernel.h"

namespace cned {

void EditDistance::LengthLowerBounds(std::size_t x_len,
                                     const std::uint32_t* y_lens,
                                     std::size_t n, double* out) const {
  ActiveSweepKernels().fill_absdiff_bounds(x_len, y_lens, n, out);
}
namespace {

// Strips the common prefix and suffix in place. Unit-cost edit distance is
// invariant under both (matched symbols cost 0 and an optimal path may
// always take them), and real workloads — dictionary words sharing stems,
// perturbed queries — have long shared affixes, so the DP often shrinks to
// a fraction of the naive |x| x |y| table.
void TrimCommonAffixes(std::string_view& x, std::string_view& y) {
  std::size_t prefix = 0;
  const std::size_t max_affix = std::min(x.size(), y.size());
  while (prefix < max_affix && x[prefix] == y[prefix]) ++prefix;
  x.remove_prefix(prefix);
  y.remove_prefix(prefix);
  std::size_t suffix = 0;
  const std::size_t remaining = std::min(x.size(), y.size());
  while (suffix < remaining &&
         x[x.size() - 1 - suffix] == y[y.size() - 1 - suffix]) {
    ++suffix;
  }
  x.remove_suffix(suffix);
  y.remove_suffix(suffix);
}

}  // namespace

std::size_t LevenshteinDistance(std::string_view x, std::string_view y) {
  TrimCommonAffixes(x, y);
  // Keep the shorter string on the column axis for O(min) space.
  if (x.size() < y.size()) std::swap(x, y);
  const std::size_t m = x.size(), n = y.size();
  if (n == 0) return m;

  std::vector<std::size_t>& row = TlsDpWorkspace().int_row;
  row.resize(n + 1);
  for (std::size_t j = 0; j <= n; ++j) row[j] = j;
  for (std::size_t i = 1; i <= m; ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= n; ++j) {
      std::size_t sub = diag + (x[i - 1] == y[j - 1] ? 0 : 1);
      diag = row[j];
      row[j] = std::min({sub, row[j] + 1, row[j - 1] + 1});
    }
  }
  return row[n];
}

std::size_t BoundedLevenshtein(std::string_view x, std::string_view y,
                               std::size_t bound) {
  TrimCommonAffixes(x, y);
  if (x.size() < y.size()) std::swap(x, y);
  const std::size_t m = x.size(), n = y.size();
  if (m - n > bound) return bound + 1;
  if (n == 0) return m;

  constexpr std::size_t kInf = std::numeric_limits<std::size_t>::max() / 2;
  std::vector<std::size_t>& row = TlsDpWorkspace().int_row;
  row.assign(n + 1, kInf);
  for (std::size_t j = 0; j <= std::min(n, bound); ++j) row[j] = j;
  for (std::size_t i = 1; i <= m; ++i) {
    // Only cells with |i - j| <= bound can hold values <= bound.
    std::size_t lo = i > bound ? i - bound : 1;
    std::size_t hi = std::min(n, i + bound);
    std::size_t diag = row[lo - 1];
    row[lo - 1] = (lo == 1) ? i : kInf;
    std::size_t row_min = row[lo - 1];
    for (std::size_t j = lo; j <= hi; ++j) {
      std::size_t sub = diag + (x[i - 1] == y[j - 1] ? 0 : 1);
      diag = row[j];
      std::size_t up = (j <= i + bound - 1) ? row[j] : kInf;
      row[j] = std::min({sub, up + 1, row[j - 1] + 1});
      row_min = std::min(row_min, row[j]);
    }
    if (hi < n) row[hi + 1] = kInf;
    if (row_min > bound) return bound + 1;
  }
  return row[n] > bound ? bound + 1 : row[n];
}

double LevenshteinDistanceBounded(std::string_view x, std::string_view y,
                                  double bound) {
  const std::size_t longer = std::max(x.size(), y.size());
  const std::size_t shorter = std::min(x.size(), y.size());
  if (bound <= 0.0) return 0.0;  // every distance is >= 0 >= bound
  // Length-difference early-out: |len(x) - len(y)| <= d_E, so when the gap
  // already reaches the bound no DP needs to run at all.
  if (static_cast<double>(longer - shorter) >= bound) return bound;
  if (!(bound <= static_cast<double>(longer))) {
    // d_E <= max(|x|, |y|) < bound, or a NaN bound (unbounded): the exact
    // value is always needed.
    return static_cast<double>(LevenshteinDistance(x, y));
  }
  // Largest integer strictly below `bound`: exactness is required only for
  // d_E <= ceil(bound) - 1, and the banded kernel's overflow sentinel
  // ceil(bound) is itself >= bound, satisfying the contract.
  const auto band = static_cast<std::size_t>(std::ceil(bound)) - 1;
  return static_cast<double>(BoundedLevenshtein(x, y, band));
}

std::vector<std::vector<std::size_t>> LevenshteinMatrix(std::string_view x,
                                                        std::string_view y) {
  const std::size_t m = x.size(), n = y.size();
  std::vector<std::vector<std::size_t>> d(m + 1,
                                          std::vector<std::size_t>(n + 1, 0));
  for (std::size_t i = 0; i <= m; ++i) d[i][0] = i;
  for (std::size_t j = 0; j <= n; ++j) d[0][j] = j;
  for (std::size_t i = 1; i <= m; ++i) {
    for (std::size_t j = 1; j <= n; ++j) {
      std::size_t sub = d[i - 1][j - 1] + (x[i - 1] == y[j - 1] ? 0 : 1);
      d[i][j] = std::min({sub, d[i - 1][j] + 1, d[i][j - 1] + 1});
    }
  }
  return d;
}

}  // namespace cned
