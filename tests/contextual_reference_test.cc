#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <queue>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/contextual.h"
#include "strings/alphabet.h"
#include "strings/string_gen.h"

namespace cned {
namespace {

/// Ground-truth contextual distance by Dijkstra over the space of strings.
///
/// Explores every string over `alphabet` of length <= `max_len` with edges
/// = single-symbol insertions (cost 1/(|u|+1)), deletions and substitutions
/// (cost 1/|u|), exactly Definition 4 of the paper with *no* restriction to
/// internal operations or canonical path shapes. Exponential in `max_len` —
/// strictly a test oracle for validating the DP of Algorithm 1.
///
/// By the paper's well-definedness argument optimal paths never need strings
/// longer than |x|+|y|, so callers should pass max_len >= |x|+|y| (the
/// default of 0 means exactly that). Both strings must be over `alphabet`.
double ContextualReferenceDistance(std::string_view x, std::string_view y,
                                   const Alphabet& alphabet,
                                   std::size_t max_len = 0) {
  if (!alphabet.ContainsAll(x) || !alphabet.ContainsAll(y)) {
    throw std::invalid_argument(
        "ContextualReferenceDistance: strings not over alphabet");
  }
  if (max_len == 0) max_len = x.size() + y.size();
  if (x.size() > max_len || y.size() > max_len) {
    throw std::invalid_argument("ContextualReferenceDistance: max_len too small");
  }

  const std::string target(y);
  using Entry = std::pair<double, std::string>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  std::unordered_map<std::string, double> best;

  std::string start(x);
  best[start] = 0.0;
  heap.emplace(0.0, std::move(start));

  while (!heap.empty()) {
    auto [cost, u] = heap.top();
    heap.pop();
    auto it = best.find(u);
    if (it != best.end() && cost > it->second) continue;  // stale entry
    if (u == target) return cost;

    const std::size_t len = u.size();
    auto relax = [&](std::string&& v, double edge) {
      double nc = cost + edge;
      auto [vit, inserted] = best.try_emplace(v, nc);
      if (!inserted && vit->second <= nc) return;
      vit->second = nc;
      heap.emplace(nc, std::move(v));
    };

    if (len > 0) {
      const double edge = 1.0 / static_cast<double>(len);
      for (std::size_t p = 0; p < len; ++p) {
        // Deletion.
        std::string v = u;
        v.erase(v.begin() + static_cast<std::ptrdiff_t>(p));
        relax(std::move(v), edge);
        // Substitutions.
        for (std::size_t a = 0; a < alphabet.size(); ++a) {
          char c = alphabet.symbol(a);
          if (c == u[p]) continue;
          std::string w = u;
          w[p] = c;
          relax(std::move(w), edge);
        }
      }
    }
    if (len < max_len) {
      const double edge = 1.0 / static_cast<double>(len + 1);
      for (std::size_t p = 0; p <= len; ++p) {
        for (std::size_t a = 0; a < alphabet.size(); ++a) {
          std::string v = u;
          v.insert(v.begin() + static_cast<std::ptrdiff_t>(p),
                   alphabet.symbol(a));
          relax(std::move(v), edge);
        }
      }
    }
  }
  throw std::logic_error("ContextualReferenceDistance: target unreachable");
}

TEST(ContextualReferenceTest, TrivialCases) {
  Alphabet ab("ab");
  EXPECT_DOUBLE_EQ(ContextualReferenceDistance("", "", ab, 4), 0.0);
  EXPECT_DOUBLE_EQ(ContextualReferenceDistance("a", "a", ab), 0.0);
  // "" -> "a": single insertion into the empty string costs 1.
  EXPECT_DOUBLE_EQ(ContextualReferenceDistance("", "a", ab), 1.0);
  // "a" -> "b": one substitution on a length-1 string costs 1... or longer
  // paths; Dijkstra must return the true minimum.
  EXPECT_LE(ContextualReferenceDistance("a", "b", ab), 1.0);
}

TEST(ContextualReferenceTest, PaperExample4) {
  Alphabet ab("ab");
  EXPECT_NEAR(ContextualReferenceDistance("ababa", "baab", ab), 8.0 / 15.0,
              1e-9);
}

TEST(ContextualReferenceTest, DpMatchesDijkstraExhaustively) {
  // Ground truth: the unrestricted Dijkstra over string space must agree
  // with Algorithm 1 on every pair of short binary strings. This validates
  // both Lemma 1 (canonical ordering) and Proposition 1 (internal ops
  // suffice) as implemented.
  Alphabet ab("ab");
  auto strings = StringGen::Enumerate(ab, 3);  // 15 strings
  for (const auto& x : strings) {
    for (const auto& y : strings) {
      double dp = ContextualDistance(x, y);
      double dij = ContextualReferenceDistance(x, y, ab);
      EXPECT_NEAR(dp, dij, 1e-9) << "x=\"" << x << "\" y=\"" << y << "\"";
    }
  }
}

TEST(ContextualReferenceTest, DpMatchesDijkstraRandomLonger) {
  Rng rng(41);
  Alphabet ab("ab");
  for (int t = 0; t < 25; ++t) {
    std::string x = StringGen::UniformLength(rng, ab, 0, 5);
    std::string y = StringGen::UniformLength(rng, ab, 0, 5);
    EXPECT_NEAR(ContextualDistance(x, y),
                ContextualReferenceDistance(x, y, ab), 1e-9)
        << "x=" << x << " y=" << y;
  }
}

TEST(ContextualReferenceTest, ExtraAlphabetSymbolNeverHelps) {
  // Proposition 1: optimal paths only need internal operations, so symbols
  // outside x and y cannot lower the distance.
  Alphabet ab("ab"), abc("abc");
  Rng rng(42);
  for (int t = 0; t < 12; ++t) {
    std::string x = StringGen::UniformLength(rng, ab, 0, 4);
    std::string y = StringGen::UniformLength(rng, ab, 0, 4);
    double d2 = ContextualReferenceDistance(x, y, ab);
    double d3 = ContextualReferenceDistance(x, y, abc);
    EXPECT_NEAR(d2, d3, 1e-9) << "x=" << x << " y=" << y;
  }
}

TEST(ContextualReferenceTest, LongerMaxLenNeverImproves) {
  // The paper's well-definedness argument: strings longer than |x|+|y|
  // never pay off. Compare max_len = |x|+|y| against a larger budget.
  Alphabet ab("ab");
  Rng rng(43);
  for (int t = 0; t < 8; ++t) {
    std::string x = StringGen::UniformLength(rng, ab, 1, 3);
    std::string y = StringGen::UniformLength(rng, ab, 1, 3);
    double tight = ContextualReferenceDistance(x, y, ab);
    double loose =
        ContextualReferenceDistance(x, y, ab, x.size() + y.size() + 2);
    EXPECT_NEAR(tight, loose, 1e-9) << "x=" << x << " y=" << y;
  }
}

TEST(ContextualReferenceTest, RejectsForeignStrings) {
  Alphabet ab("ab");
  EXPECT_THROW(ContextualReferenceDistance("ax", "b", ab),
               std::invalid_argument);
}

TEST(ContextualReferenceTest, RejectsTooSmallMaxLen) {
  Alphabet ab("ab");
  EXPECT_THROW(ContextualReferenceDistance("aaaa", "b", ab, /*max_len=*/2),
               std::invalid_argument);
}

}  // namespace
}  // namespace cned
