#include "search/knn_classifier.h"

#include <map>
#include <stdexcept>

#include "search/batch_engine.h"

namespace cned {
namespace {

/// Majority vote over neighbours sorted by proximity; ties break toward the
/// closer neighbour's label (the first to reach the winning count).
int MajorityVote(const std::vector<NeighborResult>& neighbors,
                 const std::vector<int>& labels) {
  if (neighbors.empty()) throw std::out_of_range("KnnClassify: empty index");
  std::map<int, std::size_t> votes;
  for (const auto& nb : neighbors) ++votes[LabelOf(labels, nb)];
  int best_label = 0;
  std::size_t best_votes = 0;
  for (const auto& nb : neighbors) {  // iterate by proximity for tie-breaking
    int label = labels[nb.index];
    std::size_t v = votes[label];
    if (v > best_votes) {
      best_votes = v;
      best_label = label;
    }
  }
  return best_label;
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

std::vector<int> NearestNeighborClassifier::ClassifyBatch(
    PrototypeStoreRef queries, QueryStats* stats, std::size_t threads) const {
  BatchQueryEngine engine(*searcher_, {threads});
  return engine.Classify(queries, *labels_, stats);
}

double NearestNeighborClassifier::ErrorRatePercent(
    PrototypeStoreRef queries, const std::vector<int>& true_labels) const {
  if (queries->size() != true_labels.size()) {
    throw std::invalid_argument("ErrorRatePercent: size mismatch");
  }
  if (queries->empty()) return 0.0;
  std::vector<int> predicted = ClassifyBatch(queries);
  std::size_t errors = 0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    if (predicted[i] != true_labels[i]) ++errors;
  }
  return 100.0 * static_cast<double>(errors) /
         static_cast<double>(predicted.size());
}

int KnnClassify(const NearestNeighborSearcher& searcher,
                const std::vector<int>& labels, std::string_view query,
                std::size_t k) {
  if (labels.size() < searcher.size()) {
    throw std::invalid_argument("KnnClassify: fewer labels than prototypes");
  }
  if (k == 0) {
    throw std::invalid_argument("KnnClassify: k must be >= 1");
  }
  return MajorityVote(searcher.KNearest(query, k), labels);
}

std::vector<int> KnnClassifyBatch(const NearestNeighborSearcher& searcher,
                                  const std::vector<int>& labels,
                                  PrototypeStoreRef queries, std::size_t k,
                                  QueryStats* stats, std::size_t threads) {
  if (labels.size() < searcher.size()) {
    throw std::invalid_argument(
        "KnnClassifyBatch: fewer labels than prototypes");
  }
  if (k == 0) {
    throw std::invalid_argument("KnnClassifyBatch: k must be >= 1");
  }
  BatchQueryEngine engine(searcher, {threads});
  auto neighbor_lists = engine.KNearest(queries, k, stats);
  std::vector<int> out(neighbor_lists.size());
  for (std::size_t i = 0; i < neighbor_lists.size(); ++i) {
    out[i] = MajorityVote(neighbor_lists[i], labels);
  }
  return out;
}

}  // namespace cned
