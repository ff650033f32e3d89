#include "search/knn_classifier.h"

#include <stdexcept>

#include "search/batch_engine.h"

namespace cned {
namespace {

/// The label of `r`'s prototype: `labels` is indexed by result index (a
/// slot, or a stable id for the mutable tier). Throws std::invalid_argument
/// when `labels` does not cover that index; a size check alone cannot rule
/// that out, because a mutable index's ids outgrow its size() after a
/// removal.
int LabelOf(const std::vector<int>& labels, const NeighborResult& r) {
  if (r.index >= labels.size()) {
    throw std::invalid_argument("label table does not cover result index");
  }
  return labels[r.index];
}

}  // namespace

NearestNeighborClassifier::NearestNeighborClassifier(
    const NearestNeighborSearcher& searcher, const std::vector<int>& labels)
    : searcher_(&searcher), labels_(&labels) {
  if (labels.size() < searcher.size()) {
    throw std::invalid_argument(
        "NearestNeighborClassifier: fewer labels than prototypes");
  }
}

int NearestNeighborClassifier::Classify(std::string_view query) const {
  return LabelOf(*labels_, searcher_->Nearest(query));
}

double NearestNeighborClassifier::ErrorRatePercent(
    PrototypeStoreRef queries, const std::vector<int>& true_labels) const {
  if (queries->size() != true_labels.size()) {
    throw std::invalid_argument("ErrorRatePercent: size mismatch");
  }
  if (queries->empty()) return 0.0;
  const std::vector<NeighborResult> nearest =
      BatchQueryEngine(*searcher_).Nearest(queries);
  std::size_t errors = 0;
  for (std::size_t i = 0; i < nearest.size(); ++i) {
    if (LabelOf(*labels_, nearest[i]) != true_labels[i]) ++errors;
  }
  return 100.0 * static_cast<double>(errors) /
         static_cast<double>(nearest.size());
}

}  // namespace cned
