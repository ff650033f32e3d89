// Tests for Wilson editing (ENN).

#include <gtest/gtest.h>

#include "distances/registry.h"
#include "search/condensing.h"

namespace cned {
namespace {

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
