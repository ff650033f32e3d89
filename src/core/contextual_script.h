#ifndef CNED_CORE_CONTEXTUAL_SCRIPT_H_
#define CNED_CORE_CONTEXTUAL_SCRIPT_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace cned {

/// Kind of elementary edit operation in an executable script.
enum class EditOpKind { kInsert, kSubstitute, kDelete };

/// One elementary operation, addressed against the *working string at
/// execution time* so a script can be replayed mechanically.
struct EditOp {
  EditOpKind kind = EditOpKind::kSubstitute;
  std::size_t pos = 0;  ///< index in the working string when executed
  char from = '\0';     ///< symbol removed/replaced (unset for insertions)
  char to = '\0';       ///< symbol inserted/written (unset for deletions)
  double cost = 0.0;    ///< contextual cost 1/max(|u|,|v|) of this operation
};

/// A canonical contextual edit script: all insertions first, then all
/// substitutions (performed on the longest intermediate string), then all
/// deletions — the optimal-path shape of the paper's Lemma 1.
struct EditScript {
  std::vector<EditOp> ops;
  double total_cost = 0.0;
  std::size_t k = 0;             ///< edit length (== ops.size())
  std::size_t insertions = 0;
  std::size_t substitutions = 0;
  std::size_t deletions = 0;
};

/// Optimal contextual edit script from `x` to `y` (exact Algorithm 1 with
/// backtracking). Requires the full 3-D DP table; throws std::length_error
/// when (|x|+1)·(|y|+1)·(|x|+|y|+1) exceeds `max_cells`.
EditScript ContextualAlign(std::string_view x, std::string_view y,
                           std::size_t max_cells = std::size_t{1} << 25);

/// Replays `script` on `x` and returns the resulting string. Throws
/// std::invalid_argument when an operation's position or `from` symbol does
/// not match the working string (i.e. the script is not valid for `x`).
std::string ApplyEditScript(std::string_view x, const EditScript& script);

/// Renders a script in a compact human-readable form (for examples/debug).
std::string FormatEditScript(const EditScript& script);

}  // namespace cned

#endif  // CNED_CORE_CONTEXTUAL_SCRIPT_H_
