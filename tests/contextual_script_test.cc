#include "core/contextual_script.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/contextual.h"
#include "core/contextual_heuristic.h"
#include "strings/string_gen.h"

namespace cned {
namespace {

void ExpectCanonicalOrder(const EditScript& script) {
  // Insertions, then substitutions, then deletions.
  int phase = 0;
  for (const EditOp& op : script.ops) {
    int op_phase = op.kind == EditOpKind::kInsert     ? 0
                   : op.kind == EditOpKind::kSubstitute ? 1
                                                        : 2;
    EXPECT_GE(op_phase, phase);
    phase = op_phase;
  }
}

// Recompute each op's contextual cost while replaying and compare.
void ExpectCostsConsistent(std::string_view x, const EditScript& script) {
  std::string w(x);
  double total = 0.0;
  for (const EditOp& op : script.ops) {
    std::size_t len_before = w.size();
    switch (op.kind) {
      case EditOpKind::kInsert:
        ASSERT_LE(op.pos, w.size());
        w.insert(w.begin() + static_cast<std::ptrdiff_t>(op.pos), op.to);
        EXPECT_NEAR(op.cost, 1.0 / static_cast<double>(len_before + 1), 1e-12);
        break;
      case EditOpKind::kSubstitute:
        ASSERT_LT(op.pos, w.size());
        ASSERT_EQ(w[op.pos], op.from);
        w[op.pos] = op.to;
        EXPECT_NEAR(op.cost, 1.0 / static_cast<double>(len_before), 1e-12);
        break;
      case EditOpKind::kDelete:
        ASSERT_LT(op.pos, w.size());
        ASSERT_EQ(w[op.pos], op.from);
        w.erase(w.begin() + static_cast<std::ptrdiff_t>(op.pos));
        EXPECT_NEAR(op.cost, 1.0 / static_cast<double>(len_before), 1e-12);
        break;
    }
    total += op.cost;
  }
  EXPECT_NEAR(total, script.total_cost, 1e-9);
}

// The oracle the heuristic tests hold `ContextualHeuristicDistance` to: the
// edit script of d_C,h, a minimal-edit-length path with the maximum number
// of insertions, from the full O(|x|·|y|) DP and its backtrack, laid out
// in canonical order (insertions left to right on the growing string,
// substitutions on the longest one, deletions right to left).
EditScript HeuristicScript(std::string_view x, std::string_view y) {
  const std::size_t m = x.size(), n = y.size();
  const std::size_t width = n + 1;
  std::vector<std::uint32_t> dist((m + 1) * width);
  std::vector<std::int32_t> ins((m + 1) * width);
  auto d = [&](std::size_t i, std::size_t j) -> std::uint32_t& {
    return dist[i * width + j];
  };
  auto ni = [&](std::size_t i, std::size_t j) -> std::int32_t& {
    return ins[i * width + j];
  };
  for (std::size_t j = 0; j <= n; ++j) {
    d(0, j) = static_cast<std::uint32_t>(j);
    ni(0, j) = static_cast<std::int32_t>(j);
  }
  for (std::size_t i = 1; i <= m; ++i) {
    d(i, 0) = static_cast<std::uint32_t>(i);
    ni(i, 0) = 0;
    for (std::size_t j = 1; j <= n; ++j) {
      const std::uint32_t dd =
          d(i - 1, j - 1) + (x[i - 1] == y[j - 1] ? 0u : 1u);
      const std::uint32_t ddel = d(i - 1, j) + 1;
      const std::uint32_t dins = d(i, j - 1) + 1;
      const std::uint32_t best = std::min({dd, ddel, dins});
      std::int32_t best_ni = std::numeric_limits<std::int32_t>::min();
      if (best == dd) best_ni = std::max(best_ni, ni(i - 1, j - 1));
      if (best == ddel) best_ni = std::max(best_ni, ni(i - 1, j));
      if (best == dins) best_ni = std::max(best_ni, ni(i, j - 1) + 1);
      d(i, j) = best;
      ni(i, j) = best_ni;
    }
  }

  // Backtrack right to left into alignment columns: 'm'atch, 's'ubstitute,
  // 'i'nsert, 'd'elete.
  struct Column {
    char kind, xc, yc;
  };
  std::vector<Column> columns;
  std::size_t i = m, j = n;
  while (i > 0 || j > 0) {
    const std::uint32_t dv = d(i, j);
    const std::int32_t nv = ni(i, j);
    if (i > 0 && j > 0 &&
        dv == d(i - 1, j - 1) + (x[i - 1] == y[j - 1] ? 0u : 1u) &&
        nv == ni(i - 1, j - 1)) {
      columns.push_back({x[i - 1] == y[j - 1] ? 'm' : 's', x[i - 1], y[j - 1]});
      --i, --j;
    } else if (j > 0 && dv == d(i, j - 1) + 1 && nv == ni(i, j - 1) + 1) {
      columns.push_back({'i', '\0', y[j - 1]});
      --j;
    } else if (i > 0 && dv == d(i - 1, j) + 1 && nv == ni(i - 1, j)) {
      columns.push_back({'d', x[i - 1], '\0'});
      --i;
    } else {
      ADD_FAILURE() << "HeuristicScript: backtrack dead end";
      return {};
    }
  }
  std::reverse(columns.begin(), columns.end());

  EditScript script;
  std::vector<EditOp> subs, dels;
  std::size_t x_seen = 0;
  for (const Column& col : columns) {
    const std::size_t pos = x_seen + script.insertions;
    if (col.kind == 'i') {
      script.ops.push_back({EditOpKind::kInsert, pos, '\0', col.yc,
                            1.0 / static_cast<double>(m + ++script.insertions)});
      continue;
    }
    if (col.kind == 's') {
      subs.push_back({EditOpKind::kSubstitute, pos, col.xc, col.yc, 0.0});
    }
    if (col.kind == 'd') {
      dels.push_back({EditOpKind::kDelete, pos, col.xc, '\0', 0.0});
    }
    ++x_seen;
  }
  std::size_t len = m + script.insertions;
  for (EditOp op : subs) {
    op.cost = 1.0 / static_cast<double>(len);
    script.ops.push_back(op);
  }
  for (auto it = dels.rbegin(); it != dels.rend(); ++it) {
    EditOp op = *it;
    op.cost = 1.0 / static_cast<double>(len--);
    script.ops.push_back(op);
  }
  script.substitutions = subs.size();
  script.deletions = dels.size();
  script.k = script.ops.size();
  for (const EditOp& op : script.ops) script.total_cost += op.cost;
  return script;
}

TEST(ContextualAlignTest, PaperExample4Script) {
  EditScript s = ContextualAlign("ababa", "baab");
  EXPECT_NEAR(s.total_cost, 8.0 / 15.0, 1e-12);
  EXPECT_EQ(s.k, 3u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.deletions, 2u);
  ExpectCanonicalOrder(s);
  EXPECT_EQ(ApplyEditScript("ababa", s), "baab");
}

TEST(ContextualAlignTest, ScriptCostEqualsDistance) {
  Rng rng(31);
  Alphabet ab("abc");
  for (int t = 0; t < 150; ++t) {
    std::string x = StringGen::UniformLength(rng, ab, 0, 9);
    std::string y = StringGen::UniformLength(rng, ab, 0, 9);
    EditScript s = ContextualAlign(x, y);
    EXPECT_NEAR(s.total_cost, ContextualDistance(x, y), 1e-9)
        << "x=" << x << " y=" << y;
    EXPECT_EQ(ApplyEditScript(x, s), y) << "x=" << x << " y=" << y;
    ExpectCanonicalOrder(s);
    ExpectCostsConsistent(x, s);
  }
}

TEST(ContextualAlignTest, MismatchCaseUsesLongerPath) {
  // dC(abc, dea) = 9/10 over k = 4 with 2 insertions (see contextual_test).
  EditScript s = ContextualAlign("abc", "dea");
  EXPECT_EQ(s.k, 4u);
  EXPECT_EQ(s.insertions, 2u);
  EXPECT_EQ(s.substitutions, 0u);
  EXPECT_EQ(s.deletions, 2u);
  EXPECT_NEAR(s.total_cost, 0.9, 1e-12);
  EXPECT_EQ(ApplyEditScript("abc", s), "dea");
}

TEST(ContextualAlignTest, IdenticalStringsEmptyScript) {
  EditScript s = ContextualAlign("same", "same");
  EXPECT_TRUE(s.ops.empty());
  EXPECT_DOUBLE_EQ(s.total_cost, 0.0);
  EXPECT_EQ(ApplyEditScript("same", s), "same");
}

TEST(ContextualAlignTest, MemoryGuardThrows) {
  std::string big(200, 'a'), other(200, 'b');
  EXPECT_THROW(ContextualAlign(big, other, /*max_cells=*/1000),
               std::length_error);
}

TEST(HeuristicScriptTest, CostEqualsHeuristicDistance) {
  Rng rng(32);
  Alphabet ab("abcd");
  for (int t = 0; t < 150; ++t) {
    std::string x = StringGen::UniformLength(rng, ab, 0, 12);
    std::string y = StringGen::UniformLength(rng, ab, 0, 12);
    EditScript s = HeuristicScript(x, y);
    EXPECT_NEAR(s.total_cost, ContextualHeuristicDistance(x, y), 1e-9)
        << "x=" << x << " y=" << y;
    EXPECT_EQ(ApplyEditScript(x, s), y) << "x=" << x << " y=" << y;
    EXPECT_EQ(s.k, ContextualHeuristicDetailed(x, y).k);
    ExpectCanonicalOrder(s);
    ExpectCostsConsistent(x, s);
  }
}

TEST(HeuristicScriptTest, LargeInputsWork) {
  Rng rng(33);
  Alphabet ab("ab");
  std::string x = StringGen::Uniform(rng, ab, 600);
  std::string y = StringGen::Uniform(rng, ab, 500);
  EditScript s = HeuristicScript(x, y);
  EXPECT_EQ(ApplyEditScript(x, s), y);
}

TEST(ApplyEditScriptTest, RejectsCorruptScripts) {
  EditScript s = ContextualAlign("abc", "abd");
  // Applying to the wrong source must throw on the 'from' check.
  EXPECT_THROW(ApplyEditScript("xyz", s), std::invalid_argument);
}

TEST(FormatEditScriptTest, MentionsEveryOperation) {
  EditScript s = ContextualAlign("abc", "dea");
  std::string text = FormatEditScript(s);
  EXPECT_NE(text.find("ins"), std::string::npos);
  EXPECT_NE(text.find("del"), std::string::npos);
  EXPECT_NE(text.find("total"), std::string::npos);
}

}  // namespace
}  // namespace cned
