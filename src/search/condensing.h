#ifndef CNED_SEARCH_CONDENSING_H_
#define CNED_SEARCH_CONDENSING_H_

#include <cstddef>
#include <string>
#include <vector>

#include "distances/distance.h"

namespace cned {

/// Hart's Condensed Nearest Neighbour rule (CNN, 1968): selects a subset of
/// the labelled training set that classifies every training sample
/// correctly under 1-NN.
///
/// The natural companion of the paper's §4.4 classification experiments:
/// LAESA preprocessing and query cost are linear in the prototype count, so
/// condensing the training set under a well-discriminating distance (like
/// d_C,h) shrinks both. Returns the *indices* of the retained prototypes,
/// in selection order (the first element of each class is always retained).
///
/// Deterministic: samples are scanned in index order until a full pass adds
/// nothing. Worst case O(passes · n · |subset|) distance evaluations.
std::vector<std::size_t> CondenseTrainingSet(
    const std::vector<std::string>& samples, const std::vector<int>& labels,
    const StringDistance& distance);

/// Convenience: materialises the condensed subset.
struct CondensedSet {
  std::vector<std::string> strings;
  std::vector<int> labels;
  std::vector<std::size_t> indices;  ///< positions in the original set
};
CondensedSet Condense(const std::vector<std::string>& samples,
                      const std::vector<int>& labels,
                      const StringDistance& distance);

}  // namespace cned

#endif  // CNED_SEARCH_CONDENSING_H_
