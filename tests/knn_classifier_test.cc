#include "search/knn_classifier.h"

#include <gtest/gtest.h>

#include "distances/registry.h"
#include "search/batch_engine.h"
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

TEST(KnnClassifyTest, MajorityVote) {
  std::vector<std::string> protos{"aaaa", "aaab", "aabb", "zzzz"};
  std::vector<int> labels{0, 0, 1, 1};
  ExhaustiveSearch search(protos, MakeDistance("dE"));
  // 3-NN of "aaaa": aaaa(0), aaab(0), aabb(1) -> majority 0.
  EXPECT_EQ(KnnClassify(search, labels, "aaaa", 3), 0);
  // 1-NN of "aabb" is itself -> 1.
  EXPECT_EQ(KnnClassify(search, labels, "aabb", 1), 1);
}

TEST(KnnClassifyTest, TieBreaksTowardCloserNeighbor) {
  std::vector<std::string> protos{"aaaa", "zzzz"};
  std::vector<int> labels{0, 1};
  ExhaustiveSearch search(protos, MakeDistance("dE"));
  // 2-NN is a 1-1 tie; the closer neighbour's label must win.
  EXPECT_EQ(KnnClassify(search, labels, "aaaz", 2), 0);
  EXPECT_EQ(KnnClassify(search, labels, "zzza", 2), 1);
}

// A mutable index reports stable ids, which outgrow size() after a
// removal: the size check passes, yet the nearest id is not covered by a
// slot-sized label table. Every classifier must throw instead of reading
// past the table.
TEST(KnnClassifierTest, UncoveredResultIndexThrows) {
  MutableLaesa index({"aaaa", "bbbb", "cccc"}, MakeDistance("dE"));
  ASSERT_TRUE(index.Remove(0));
  const std::vector<int> labels{10, 20};
  ASSERT_EQ(labels.size(), index.size());
  ASSERT_EQ(index.Nearest("cccc").index, 2u);

  NearestNeighborClassifier clf(index, labels);
  EXPECT_THROW(clf.Classify("cccc"), std::invalid_argument);
  EXPECT_THROW(clf.ClassifyBatch(std::vector<std::string>{"cccc"}),
               std::invalid_argument);
  EXPECT_THROW(KnnClassify(index, labels, "cccc", 2), std::invalid_argument);
  EXPECT_THROW(KnnClassifyBatch(index, labels,
                                std::vector<std::string>{"cccc"}, 2),
               std::invalid_argument);
  BatchQueryEngine engine(index);
  EXPECT_THROW(engine.Classify(std::vector<std::string>{"cccc"}, labels),
               std::invalid_argument);
  // A covered id still classifies.
  EXPECT_EQ(clf.Classify("bbbb"), 20);
}

// The id-indexed table `MutableLaesa::Classify` takes is longer than size()
// after a removal; every generic entry point must accept it and agree.
TEST(KnnClassifierTest, IdIndexedLabelsClassifyMutableIndexAfterRemove) {
  MutableLaesa index({"aaaa", "bbbb", "cccc"}, MakeDistance("dE"));
  ASSERT_TRUE(index.Remove(0));
  const std::vector<int> labels{10, 20, 30};
  ASSERT_GT(labels.size(), index.size());
  ASSERT_EQ(index.Classify("cccc", labels), 30);

  NearestNeighborClassifier clf(index, labels);
  EXPECT_EQ(clf.Classify("cccc"), 30);
  EXPECT_EQ(clf.ClassifyBatch(std::vector<std::string>{"cccc"}),
            std::vector<int>{30});
  EXPECT_EQ(KnnClassify(index, labels, "cccc", 1), 30);
  EXPECT_EQ(KnnClassifyBatch(index, labels, std::vector<std::string>{"cccc"},
                             1),
            std::vector<int>{30});
  BatchQueryEngine engine(index);
  EXPECT_EQ(engine.Classify(std::vector<std::string>{"cccc"}, labels),
            std::vector<int>{30});
}

}  // namespace
}  // namespace cned
