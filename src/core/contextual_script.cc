#include "core/contextual_script.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/harmonic.h"
#include "core/contextual.h"

namespace cned {
namespace {

constexpr std::int32_t kNegInf = std::numeric_limits<std::int32_t>::min() / 4;

// One column of an alignment between x and y.
enum class ColKind { kMatch, kSub, kDel, kIns };
struct Column {
  ColKind kind;
  char xc = '\0';
  char yc = '\0';
};

// Turns an alignment (left-to-right columns) into the canonical executable
// script: insertions first (left to right on a growing string), then
// substitutions (on the longest intermediate string), then deletions (right
// to left on a shrinking string, so recorded positions stay valid).
EditScript BuildCanonicalScript(std::string_view x,
                                const std::vector<Column>& columns) {
  const std::size_t m = x.size();

  EditScript script;
  std::size_t x_seen = 0;     // x symbols passed so far (match/sub/del cols)
  std::size_t inserted = 0;   // insertions emitted so far
  std::vector<std::pair<std::size_t, const Column*>> subs;  // (merged pos, col)
  std::vector<std::pair<std::size_t, const Column*>> dels;

  for (const Column& col : columns) {
    const std::size_t merged_pos = x_seen + inserted;
    switch (col.kind) {
      case ColKind::kIns: {
        EditOp op;
        op.kind = EditOpKind::kInsert;
        op.pos = merged_pos;
        op.to = col.yc;
        op.cost = 1.0 / static_cast<double>(m + inserted + 1);
        script.ops.push_back(op);
        ++inserted;
        break;
      }
      case ColKind::kSub:
        subs.emplace_back(merged_pos, &col);
        ++x_seen;
        break;
      case ColKind::kDel:
        dels.emplace_back(merged_pos, &col);
        ++x_seen;
        break;
      case ColKind::kMatch:
        ++x_seen;
        break;
    }
  }

  const std::size_t peak_len = m + inserted;
  for (const auto& [pos, col] : subs) {
    EditOp op;
    op.kind = EditOpKind::kSubstitute;
    op.pos = pos;
    op.from = col->xc;
    op.to = col->yc;
    op.cost = 1.0 / static_cast<double>(peak_len);
    script.ops.push_back(op);
  }
  std::size_t len = peak_len;
  for (auto it = dels.rbegin(); it != dels.rend(); ++it) {
    EditOp op;
    op.kind = EditOpKind::kDelete;
    op.pos = it->first;
    op.from = it->second->xc;
    op.cost = 1.0 / static_cast<double>(len);
    script.ops.push_back(op);
    --len;
  }

  script.insertions = inserted;
  script.substitutions = subs.size();
  script.deletions = dels.size();
  script.k = script.ops.size();
  script.total_cost = 0.0;
  for (const EditOp& op : script.ops) script.total_cost += op.cost;
  return script;
}

}  // namespace

EditScript ContextualAlign(std::string_view x, std::string_view y,
                           std::size_t max_cells) {
  const std::size_t m = x.size(), n = y.size();
  const std::size_t kmax = m + n;
  const std::size_t width = n + 1;
  const std::size_t plane = (m + 1) * width;
  if ((kmax + 1) > max_cells / std::max<std::size_t>(plane, 1)) {
    throw std::length_error("ContextualAlign: DP table exceeds max_cells");
  }

  // Full 3-D table of Algorithm 1 (layer-major) for backtracking.
  std::vector<std::int32_t> ni((kmax + 1) * plane, kNegInf);
  auto at = [&](std::size_t k, std::size_t i, std::size_t j) -> std::int32_t& {
    return ni[k * plane + i * width + j];
  };

  at(0, 0, 0) = 0;
  {
    bool eq = true;
    for (std::size_t t = 1; t <= std::min(m, n) && eq; ++t) {
      eq = (x[t - 1] == y[t - 1]);
      if (eq) at(0, t, t) = 0;
    }
  }
  for (std::size_t k = 1; k <= kmax; ++k) {
    for (std::size_t j = 1; j <= n; ++j) at(k, 0, j) = at(k - 1, 0, j - 1) + 1;
    for (std::size_t i = 1; i <= m; ++i) {
      at(k, i, 0) = at(k - 1, i - 1, 0);
      for (std::size_t j = 1; j <= n; ++j) {
        std::int32_t best = (x[i - 1] == y[j - 1]) ? at(k, i - 1, j - 1)
                                                   : at(k - 1, i - 1, j - 1);
        best = std::max(best, at(k - 1, i - 1, j));
        best = std::max(best, at(k - 1, i, j - 1) + 1);
        at(k, i, j) = best;
      }
    }
  }

  // Pick the optimal (k*, ni*) by the closed-form cost.
  HarmonicTable& h = GlobalHarmonic();
  double best_cost = std::numeric_limits<double>::infinity();
  std::size_t best_k = 0;
  for (std::size_t k = 0; k <= kmax; ++k) {
    std::int32_t v = at(k, m, n);
    if (v < 0) continue;
    double cost =
        ContextualPathCost(m, n, k, static_cast<std::size_t>(v), h);
    if (cost < best_cost) {
      best_cost = cost;
      best_k = k;
    }
  }

  // Backtrack any path realising (best_k, ni*).
  std::vector<Column> columns;
  std::size_t i = m, j = n, k = best_k;
  while (i > 0 || j > 0) {
    const std::int32_t v = at(k, i, j);
    if (i > 0 && j > 0 && x[i - 1] == y[j - 1] && v == at(k, i - 1, j - 1)) {
      columns.push_back({ColKind::kMatch, x[i - 1], y[j - 1]});
      --i, --j;
    } else if (k > 0 && i > 0 && j > 0 && x[i - 1] != y[j - 1] &&
               v == at(k - 1, i - 1, j - 1)) {
      columns.push_back({ColKind::kSub, x[i - 1], y[j - 1]});
      --i, --j, --k;
    } else if (k > 0 && i > 0 && v == at(k - 1, i - 1, j)) {
      columns.push_back({ColKind::kDel, x[i - 1], '\0'});
      --i, --k;
    } else if (k > 0 && j > 0 && v == at(k - 1, i, j - 1) + 1) {
      columns.push_back({ColKind::kIns, '\0', y[j - 1]});
      --j, --k;
    } else {
      throw std::logic_error("ContextualAlign: backtrack dead end");
    }
  }
  std::reverse(columns.begin(), columns.end());
  EditScript script = BuildCanonicalScript(x, columns);
  return script;
}

std::string ApplyEditScript(std::string_view x, const EditScript& script) {
  std::string w(x);
  for (const EditOp& op : script.ops) {
    switch (op.kind) {
      case EditOpKind::kInsert:
        if (op.pos > w.size()) {
          throw std::invalid_argument("ApplyEditScript: insert out of range");
        }
        w.insert(w.begin() + static_cast<std::ptrdiff_t>(op.pos), op.to);
        break;
      case EditOpKind::kSubstitute:
        if (op.pos >= w.size() || w[op.pos] != op.from) {
          throw std::invalid_argument("ApplyEditScript: bad substitution");
        }
        w[op.pos] = op.to;
        break;
      case EditOpKind::kDelete:
        if (op.pos >= w.size() || w[op.pos] != op.from) {
          throw std::invalid_argument("ApplyEditScript: bad deletion");
        }
        w.erase(w.begin() + static_cast<std::ptrdiff_t>(op.pos));
        break;
    }
  }
  return w;
}

std::string FormatEditScript(const EditScript& script) {
  std::ostringstream os;
  for (const EditOp& op : script.ops) {
    switch (op.kind) {
      case EditOpKind::kInsert:
        os << "ins '" << op.to << "' @" << op.pos;
        break;
      case EditOpKind::kSubstitute:
        os << "sub '" << op.from << "'->'" << op.to << "' @" << op.pos;
        break;
      case EditOpKind::kDelete:
        os << "del '" << op.from << "' @" << op.pos;
        break;
    }
    os << " (cost " << op.cost << ")\n";
  }
  os << "total " << script.total_cost << " over k=" << script.k << " ops";
  return os.str();
}

}  // namespace cned
