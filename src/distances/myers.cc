#include "distances/myers.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/dp_workspace.h"

namespace cned {
namespace {

constexpr std::size_t kWord = 64;

// Both kernels run a pattern of m symbols (the rows) down the n columns of
// the text. They do not track the last-row score: they track the cell on
// the end diagonal, i - j = m - n, which reaches D[m][n] at the last
// column. Every path to (m, n) crosses column j and still needs at least
// |(m - i) - (n - j)| operations from (i, j), and D changes by at most 1
// per step down a column, so d_E >= the end-diagonal cell of every column
// j it meets; once that cell exceeds `bound` the call stops. (It is never
// below the last-row test D[m][j] - (n - j), so it fires no later.)
//
// With m <= n (lag = n - m) the diagonal starts at D[0][lag] = lag, and
// columns j < lag need no test: their minimum is lag <= bound. With m > n
// it starts at D[m - n][0] = m - n on the first column. Either way it
// starts at |m - n| and steps from (i, j) to (i + 1, j + 1) by 0 or 1, and
// by 0 exactly when x_{i+1} == y_{j+1} (`eq`), D[i+1][j] = D[i][j] - 1 (the
// old `mv`) or D[i][j+1] = D[i][j] - 1 (the new horizontal `mh`, shifted
// so that bit i is row i). `xv` is eq | mv, so bit i of xv | mh decides it.

// Single-word Myers (1 <= m <= 64, n >= 1).
std::size_t MyersWord(const std::uint64_t* peq, std::size_t m,
                      std::string_view text, std::size_t bound) {
  const std::size_t n = text.size();
  const std::size_t start = n > m ? n - m : 0;  // first column on the diagonal
  std::uint64_t pv = ~std::uint64_t{0};
  std::uint64_t mv = 0;
  std::size_t diag = m > n ? m - n : n - m;
  std::uint64_t row = std::uint64_t{1} << (m > n ? m - n : 0);  // its row
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t eq = peq[static_cast<unsigned char>(text[j])];
    const std::uint64_t xv = eq | mv;
    const std::uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    std::uint64_t ph = mv | ~(xh | pv);
    std::uint64_t mh = pv & xh;
    ph = (ph << 1) | 1;  // horizontal carry-in of +1 from the top row
    mh <<= 1;
    pv = mh | ~(xv | ph);
    mv = ph & xv;
    if (j >= start) {
      diag += ((xv | mh) & row) == 0;
      row <<= 1;
      if (diag > bound) return bound + 1;
    }
  }
  return diag;
}

// Blocked Myers/Hyyrö for m > 64: one vertical-delta word pair (pv, mv) per
// block, horizontal deltas carried across blocks for each text column. The
// top boundary row contributes carry +1 into block 0. `peq` holds `blocks`
// words per symbol.
std::size_t MyersBlocked(const std::uint64_t* peq, std::size_t blocks,
                         std::size_t m, std::string_view text,
                         std::size_t bound, std::uint64_t* pv,
                         std::uint64_t* mv) {
  for (std::size_t b = 0; b < blocks; ++b) {
    pv[b] = ~std::uint64_t{0};
    mv[b] = 0;
  }
  const std::size_t n = text.size();
  const std::size_t start = n > m ? n - m : 0;
  const std::size_t first_row = m > n ? m - n : 0;
  std::size_t diag = m > n ? m - n : n - m;
  std::size_t row_block = first_row / kWord;
  std::uint64_t row = std::uint64_t{1} << (first_row % kWord);
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t* col =
        peq + static_cast<unsigned char>(text[j]) * blocks;
    std::uint64_t diag_bits = 0;
    int hin = 1;  // carry from the top boundary row (D[0][j] = j)
    for (std::size_t b = 0; b < blocks; ++b) {
      std::uint64_t eq = col[b];
      const std::uint64_t xv = eq | mv[b];
      if (hin < 0) eq |= 1;
      const std::uint64_t xh = (((eq & pv[b]) + pv[b]) ^ pv[b]) | eq;
      std::uint64_t ph = mv[b] | ~(xh | pv[b]);
      std::uint64_t mh = pv[b] & xh;

      const int hout =
          static_cast<int>(ph >> (kWord - 1)) - static_cast<int>(mh >> (kWord - 1));
      ph <<= 1;
      mh <<= 1;
      if (hin > 0) ph |= 1;
      if (hin < 0) mh |= 1;

      pv[b] = mh | ~(xv | ph);
      mv[b] = ph & xv;
      if (b == row_block) diag_bits = xv | mh;
      hin = hout;
    }
    if (j >= start) {
      diag += (diag_bits & row) == 0;
      row <<= 1;
      if (row == 0) {
        row = 1;
        ++row_block;
      }
      if (diag > bound) return bound + 1;
    }
  }
  return diag;
}

// Sets the match bits of `pattern` in `peq` (`blocks` words per symbol).
// With `value` false, clears the words it would set.
void MarkPattern(std::string_view pattern, std::size_t blocks,
                 std::uint64_t* peq, bool value) {
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    std::uint64_t& w =
        peq[static_cast<unsigned char>(pattern[i]) * blocks + i / kWord];
    w = value ? w | std::uint64_t{1} << (i % kWord) : 0;
  }
}

}  // namespace

std::size_t MyersLevenshteinBounded(std::string_view x, std::string_view y,
                                    std::size_t bound) {
  // Use the shorter string as the pattern (fewer blocks).
  std::string_view pattern = x, text = y;
  if (pattern.size() > text.size()) std::swap(pattern, text);
  const std::size_t m = pattern.size();
  const std::size_t lag = text.size() - m;  // |m - n| <= d_E
  if (lag > bound) return bound + 1;
  if (m == 0) return lag;

  // The match table lives in the thread's workspace and is all-zero between
  // calls: only the entries this pattern sets are cleared afterwards.
  DpWorkspace& ws = TlsDpWorkspace();
  const std::size_t blocks = (m + kWord - 1) / kWord;
  if (ws.myers_peq.size() < 256 * blocks) ws.myers_peq.resize(256 * blocks);
  std::uint64_t* peq = ws.myers_peq.data();
  MarkPattern(pattern, blocks, peq, true);
  std::size_t d;
  if (blocks == 1) {
    d = MyersWord(peq, m, text, bound);
  } else {
    ws.myers_pv.resize(blocks);
    ws.myers_mv.resize(blocks);
    d = MyersBlocked(peq, blocks, m, text, bound, ws.myers_pv.data(),
                     ws.myers_mv.data());
  }
  MarkPattern(pattern, blocks, peq, false);
  return d;
}

std::size_t MyersLevenshtein(std::string_view x, std::string_view y) {
  // d_E <= max(|x|, |y|), so this bound never cuts the kernel short.
  return MyersLevenshteinBounded(x, y, std::max(x.size(), y.size()));
}

MyersPattern::MyersPattern(std::string_view pattern)
    : m_(pattern.size()),
      blocks_((pattern.size() + kWord - 1) / kWord),
      peq_(256 * blocks_, 0) {
  MarkPattern(pattern, blocks_, peq_.data(), true);
  pv_.resize(blocks_ > 1 ? blocks_ : 0);
  mv_.resize(pv_.size());
}

std::size_t MyersPattern::Bounded(std::string_view text, std::size_t bound) {
  const std::size_t n = text.size();
  const std::size_t lag = m_ > n ? m_ - n : n - m_;
  if (lag > bound) return bound + 1;
  if (m_ == 0 || n == 0) return lag;
  if (blocks_ > 1) {
    return MyersBlocked(peq_.data(), blocks_, m_, text, bound, pv_.data(),
                        mv_.data());
  }
  return MyersWord(peq_.data(), m_, text, bound);
}

}  // namespace cned
