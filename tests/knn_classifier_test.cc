#include "search/knn_classifier.h"

#include <gtest/gtest.h>

#include "distances/registry.h"
#include "search/exhaustive.h"
#include "search/laesa.h"
#include "search/mutable_laesa.h"

namespace cned {
namespace {

// Two well-separated synthetic classes.
std::pair<std::vector<std::string>, std::vector<int>> TwoClasses() {
  std::vector<std::string> protos{"aaaa", "aaab", "abaa", "aaba",
                                  "zzzz", "zzzy", "zyzz", "zzyz"};
  std::vector<int> labels{0, 0, 0, 0, 1, 1, 1, 1};
  return {protos, labels};
}

TEST(KnnClassifierTest, PerfectOnSeparableData) {
  auto [protos, labels] = TwoClasses();
  ExhaustiveSearch search(protos, MakeDistance("dE"));
  NearestNeighborClassifier clf(search, labels);
  EXPECT_EQ(clf.Classify("aaaa"), 0);
  EXPECT_EQ(clf.Classify("aabb"), 0);
  EXPECT_EQ(clf.Classify("zzzz"), 1);
  EXPECT_EQ(clf.Classify("zyyz"), 1);
}

TEST(KnnClassifierTest, ErrorRatePercentComputed) {
  auto [protos, labels] = TwoClasses();
  ExhaustiveSearch search(protos, MakeDistance("dE"));
  NearestNeighborClassifier clf(search, labels);
  std::vector<std::string> queries{"aaaa", "zzzz", "aaab", "zzzy"};
  std::vector<int> truth{0, 1, 1, 0};  // two labels deliberately wrong
  EXPECT_DOUBLE_EQ(clf.ErrorRatePercent(queries, truth), 50.0);
}

TEST(KnnClassifierTest, WorksWithLaesaBackend) {
  auto [protos, labels] = TwoClasses();
  Laesa laesa(protos, MakeDistance("dE"), 3);
  NearestNeighborClassifier clf(laesa, labels);
  EXPECT_EQ(clf.Classify("aaba"), 0);
  EXPECT_EQ(clf.Classify("zzyy"), 1);
}

TEST(KnnClassifierTest, SizeMismatchThrows) {
  auto [protos, labels] = TwoClasses();
  labels.pop_back();
  ExhaustiveSearch search(protos, MakeDistance("dE"));
  EXPECT_THROW(NearestNeighborClassifier(search, labels),
               std::invalid_argument);
}

TEST(KnnClassifierTest, ErrorRateSizeMismatchThrows) {
  auto [protos, labels] = TwoClasses();
  ExhaustiveSearch search(protos, MakeDistance("dE"));
  NearestNeighborClassifier clf(search, labels);
  std::vector<std::string> queries{"a"};
  EXPECT_THROW(clf.ErrorRatePercent(queries, {0, 1}), std::invalid_argument);
}

// A mutable index reports stable ids, which outgrow size() after a
// removal: the size check passes, yet the nearest id is not covered by a
// slot-sized label table. Both classifier entries must throw instead of
// reading past the table.
TEST(KnnClassifierTest, UncoveredResultIndexThrows) {
  MutableLaesa index({"aaaa", "bbbb", "cccc"}, MakeDistance("dE"));
  ASSERT_TRUE(index.Remove(0));
  const std::vector<int> labels{10, 20};
  ASSERT_EQ(labels.size(), index.size());
  ASSERT_EQ(index.Nearest("cccc").index, 2u);

  NearestNeighborClassifier clf(index, labels);
  EXPECT_THROW(clf.Classify("cccc"), std::invalid_argument);
  EXPECT_THROW(clf.ErrorRatePercent(std::vector<std::string>{"cccc"}, {20}),
               std::invalid_argument);
  // A covered id still classifies.
  EXPECT_EQ(clf.Classify("bbbb"), 20);
}

// An id-indexed label table is longer than size() after a removal; both
// classifier entries must accept it and agree.
TEST(KnnClassifierTest, IdIndexedLabelsClassifyMutableIndexAfterRemove) {
  MutableLaesa index({"aaaa", "bbbb", "cccc"}, MakeDistance("dE"));
  ASSERT_TRUE(index.Remove(0));
  const std::vector<int> labels{10, 20, 30};
  ASSERT_GT(labels.size(), index.size());
  ASSERT_EQ(index.Nearest("cccc").index, 2u);

  NearestNeighborClassifier clf(index, labels);
  EXPECT_EQ(clf.Classify("cccc"), 30);
  EXPECT_DOUBLE_EQ(
      clf.ErrorRatePercent(std::vector<std::string>{"cccc", "bbbb"}, {30, 10}),
      50.0);
}

}  // namespace
}  // namespace cned
