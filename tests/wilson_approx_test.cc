// Tests for Wilson editing (ENN) and its composition with Hart condensing.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "distances/registry.h"
#include "search/condensing.h"

namespace cned {
namespace {

/// Wilson editing (ENN, 1972): removes every sample whose label disagrees
/// with the majority of its k nearest neighbours in the rest of the set —
/// the standard noise filter applied *before* Hart condensing. Returns the
/// retained indices in original order.
std::vector<std::size_t> WilsonEdit(const std::vector<std::string>& samples,
                                    const std::vector<int>& labels,
                                    const StringDistance& distance,
                                    std::size_t k = 3) {
  if (samples.size() != labels.size()) {
    throw std::invalid_argument("WilsonEdit: size mismatch");
  }
  if (k == 0) throw std::invalid_argument("WilsonEdit: k must be >= 1");
  std::vector<std::size_t> kept;
  if (samples.size() <= 1) {
    for (std::size_t i = 0; i < samples.size(); ++i) kept.push_back(i);
    return kept;
  }

  for (std::size_t i = 0; i < samples.size(); ++i) {
    // k nearest neighbours of sample i among the others.
    std::vector<std::pair<double, std::size_t>> dists;
    dists.reserve(samples.size() - 1);
    for (std::size_t j = 0; j < samples.size(); ++j) {
      if (j == i) continue;
      dists.emplace_back(distance.Distance(samples[i], samples[j]), j);
    }
    std::size_t kk = std::min(k, dists.size());
    std::partial_sort(dists.begin(),
                      dists.begin() + static_cast<std::ptrdiff_t>(kk),
                      dists.end());
    std::map<int, std::size_t> votes;
    for (std::size_t t = 0; t < kk; ++t) ++votes[labels[dists[t].second]];
    // Majority label; proximity breaks ties.
    int best_label = labels[dists[0].second];
    std::size_t best_votes = 0;
    for (std::size_t t = 0; t < kk; ++t) {
      int label = labels[dists[t].second];
      if (votes[label] > best_votes) {
        best_votes = votes[label];
        best_label = label;
      }
    }
    if (best_label == labels[i]) kept.push_back(i);
  }
  return kept;
}

TEST(WilsonEditTest, RemovesIsolatedMislabeledSample) {
  // A 'z...' string labelled as class 0 sits inside class-1 territory: its
  // neighbours all vote 1, so Wilson editing must drop it.
  std::vector<std::string> samples{"aaaa", "aaab", "aaba", "zzzz",
                                   "zzzy", "zzyz", "zzab"};
  std::vector<int> labels{0, 0, 0, 1, 1, 1, /*mislabeled:*/ 1};
  // "zzab" is closer to the a-cluster? dE(zzab, aaab)=2, dE(zzab, zzzy)=2 —
  // keep it simple: instead plant "aabb" with label 1 inside class 0.
  samples.back() = "aabb";
  auto kept = WilsonEdit(samples, labels, *MakeDistance("dE"), 3);
  for (std::size_t idx : kept) {
    EXPECT_NE(samples[idx], "aabb");  // the planted noise must be gone
  }
  EXPECT_EQ(kept.size(), samples.size() - 1);
}

TEST(WilsonEditTest, CleanSeparableDataKeptIntact) {
  std::vector<std::string> samples{"aaaa", "aaab", "aaba", "abaa",
                                   "zzzz", "zzzy", "zzyz", "zyzz"};
  std::vector<int> labels{0, 0, 0, 0, 1, 1, 1, 1};
  auto kept = WilsonEdit(samples, labels, *MakeDistance("dE"), 3);
  EXPECT_EQ(kept.size(), samples.size());
}

TEST(WilsonEditTest, EdgeCasesAndValidation) {
  auto dist = MakeDistance("dE");
  std::vector<std::string> one{"solo"};
  std::vector<int> one_label{0};
  EXPECT_EQ(WilsonEdit(one, one_label, *dist).size(), 1u);
  std::vector<std::string> empty;
  std::vector<int> no_labels;
  EXPECT_TRUE(WilsonEdit(empty, no_labels, *dist).empty());
  EXPECT_THROW(WilsonEdit(one, no_labels, *dist), std::invalid_argument);
  EXPECT_THROW(WilsonEdit(one, one_label, *dist, 0), std::invalid_argument);
}

TEST(WilsonEditTest, ComposesWithCondensing) {
  // ENN then CNN: the classic pipeline. The result must stay 1-NN
  // consistent with the edited (not original) set.
  std::vector<std::string> samples{"aaaa", "aaab", "aaba", "abaa", "aabb",
                                   "zzzz", "zzzy", "zzyz", "zyzz"};
  std::vector<int> labels{0, 0, 0, 0, /*noise:*/ 1, 1, 1, 1, 1};
  auto dist = MakeDistance("dE");
  auto edited = WilsonEdit(samples, labels, *dist, 3);
  std::vector<std::string> es;
  std::vector<int> el;
  for (std::size_t idx : edited) {
    es.push_back(samples[idx]);
    el.push_back(labels[idx]);
  }
  CondensedSet sub = Condense(es, el, *dist);
  EXPECT_LE(sub.strings.size(), es.size());
  EXPECT_GE(sub.strings.size(), 2u);
}

}  // namespace
}  // namespace cned
