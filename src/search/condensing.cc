#include "search/condensing.h"

#include <limits>
#include <stdexcept>

namespace cned {
namespace {

// 1-NN label of `query` within the subset `kept` (indices into samples).
int ClassifyWithin(const std::vector<std::string>& samples,
                   const std::vector<int>& labels,
                   const std::vector<std::size_t>& kept,
                   const StringDistance& distance, const std::string& query) {
  double best = std::numeric_limits<double>::infinity();
  int best_label = -1;
  for (std::size_t idx : kept) {
    double d = distance.Distance(query, samples[idx]);
    if (d < best) {
      best = d;
      best_label = labels[idx];
    }
  }
  return best_label;
}

}  // namespace

std::vector<std::size_t> CondenseTrainingSet(
    const std::vector<std::string>& samples, const std::vector<int>& labels,
    const StringDistance& distance) {
  if (samples.size() != labels.size()) {
    throw std::invalid_argument("CondenseTrainingSet: size mismatch");
  }
  if (samples.empty()) return {};

  std::vector<std::size_t> kept;
  std::vector<bool> in_subset(samples.size(), false);

  // Seed with the first occurrence of every class, in index order.
  std::vector<int> seen_labels;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    bool new_label = true;
    for (int l : seen_labels) {
      if (l == labels[i]) {
        new_label = false;
        break;
      }
    }
    if (new_label) {
      seen_labels.push_back(labels[i]);
      kept.push_back(i);
      in_subset[i] = true;
    }
  }

  // Sweep until a full pass makes no additions: add every sample the
  // current subset misclassifies.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if (in_subset[i]) continue;
      int predicted =
          ClassifyWithin(samples, labels, kept, distance, samples[i]);
      if (predicted != labels[i]) {
        kept.push_back(i);
        in_subset[i] = true;
        changed = true;
      }
    }
  }
  return kept;
}

CondensedSet Condense(const std::vector<std::string>& samples,
                      const std::vector<int>& labels,
                      const StringDistance& distance) {
  CondensedSet out;
  out.indices = CondenseTrainingSet(samples, labels, distance);
  out.strings.reserve(out.indices.size());
  out.labels.reserve(out.indices.size());
  for (std::size_t idx : out.indices) {
    out.strings.push_back(samples[idx]);
    out.labels.push_back(labels[idx]);
  }
  return out;
}

}  // namespace cned
