#ifndef CNED_SEARCH_KNN_CLASSIFIER_H_
#define CNED_SEARCH_KNN_CLASSIFIER_H_

#include <cstddef>
#include <string_view>
#include <vector>

#include "datasets/prototype_store.h"
#include "distances/distance.h"
#include "search/nn_searcher.h"

namespace cned {

/// 1-NN classifier over labelled prototypes, generic in the search backend
/// (exhaustive, LAESA or AESA), as used in the paper's §4.4: a query is
/// given the label of its nearest training prototype.
///
/// Batch entry points run on the `BatchQueryEngine` (all cores, merged
/// stats) and return exactly what the per-query loop would.
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

  /// Labels for a whole query span, batched across cores. `queries` is a
  /// borrowed `PrototypeStore` or a `std::vector<std::string>`; `threads`
  /// = 0 means hardware concurrency.
  std::vector<int> ClassifyBatch(PrototypeStoreRef queries,
                                 QueryStats* stats = nullptr,
                                 std::size_t threads = 0) const;

  /// Fraction (in %) of test samples whose predicted label differs from the
  /// true one — the error rate of Table 2. Batched internally.
  double ErrorRatePercent(PrototypeStoreRef queries,
                          const std::vector<int>& true_labels) const;

 private:
  const NearestNeighborSearcher* searcher_;
  const std::vector<int>* labels_;
};

/// Majority-vote k-NN (extension beyond the paper's 1-NN), over any
/// backend. Ties break toward the closer neighbour's label. `labels` is
/// indexed by result id, as in `NearestNeighborClassifier`. Throws
/// std::invalid_argument when it is shorter than the searcher's size() or
/// does not cover a neighbour's index.
int KnnClassify(const NearestNeighborSearcher& searcher,
                const std::vector<int>& labels, std::string_view query,
                std::size_t k);

/// Batched majority-vote k-NN over the `BatchQueryEngine`.
std::vector<int> KnnClassifyBatch(const NearestNeighborSearcher& searcher,
                                  const std::vector<int>& labels,
                                  PrototypeStoreRef queries, std::size_t k,
                                  QueryStats* stats = nullptr,
                                  std::size_t threads = 0);

}  // namespace cned

#endif  // CNED_SEARCH_KNN_CLASSIFIER_H_
