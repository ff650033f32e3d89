#ifndef CNED_SEARCH_KNN_CLASSIFIER_H_
#define CNED_SEARCH_KNN_CLASSIFIER_H_

#include <string_view>
#include <vector>

#include "datasets/prototype_store.h"
#include "search/nn_searcher.h"

namespace cned {

/// 1-NN classifier over labelled prototypes, generic in the search backend
/// (exhaustive, LAESA or AESA), as used in the paper's §4.4: a query is
/// given the label of its nearest training prototype.
class NearestNeighborClassifier {
 public:
  /// `labels[id]` is the class of the prototype a result reports as `id`.
  /// A mutable index reports stable ids, which outgrow its size() after a
  /// removal, so the table may be longer than size(); a shorter one throws
  /// std::invalid_argument. The searcher and labels are borrowed; the
  /// caller keeps them alive.
  NearestNeighborClassifier(const NearestNeighborSearcher& searcher,
                            const std::vector<int>& labels);

  /// Label of the nearest prototype. Throws std::invalid_argument when the
  /// labels do not cover its index (a mutable index's stable ids can
  /// exceed its size()).
  int Classify(std::string_view query) const;

  /// Fraction (in %) of test samples whose predicted label differs from the
  /// true one — the error rate of Table 2. The nearest neighbours are found
  /// in one `BatchQueryEngine` pass over all cores, so the answer is the
  /// per-query `Classify` loop's.
  double ErrorRatePercent(PrototypeStoreRef queries,
                          const std::vector<int>& true_labels) const;

 private:
  const NearestNeighborSearcher* searcher_;
  const std::vector<int>* labels_;
};

}  // namespace cned

#endif  // CNED_SEARCH_KNN_CLASSIFIER_H_
