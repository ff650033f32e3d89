#ifndef CNED_SEARCH_VP_TREE_H_
#define CNED_SEARCH_VP_TREE_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "datasets/prototype_store.h"
#include "distances/distance.h"
#include "search/nn_searcher.h"

namespace cned {

/// Vantage-point tree (Yianilos 1993) over a string metric.
///
/// The paper argues its LAESA results "will apply in similar cases" — other
/// methods that exploit the triangle inequality. The VP-tree is the classic
/// such method with logarithmic-ish search on low-intrinsic-dimension data,
/// so it directly tests that claim: a distance with a flatter histogram
/// (lower rho, like d_C) prunes more of the tree.
///
/// Exact nearest-neighbour search when the distance is a true metric.
class VpTree final : public NearestNeighborSearcher {
 public:
  /// Shared per-query cost counters (see `cned::QueryStats`).
  using QueryStats = ::cned::QueryStats;

  /// Builds the tree over `prototypes` — a borrowed `PrototypeStore`
  /// (caller keeps it alive) or a `std::vector<std::string>` packed once
  /// into an owned store. `seed` controls vantage-point sampling.
  VpTree(PrototypeStoreRef prototypes, StringDistancePtr distance,
         std::uint64_t seed = 1);

  std::size_t size() const override { return prototypes_->size(); }

  /// The prototype set the index searches over.
  const PrototypeStore& store() const { return prototypes_.get(); }

  /// The k nearest prototypes, closest first: the prune radius is the
  /// current k-th best distance instead of the single best.
  std::vector<NeighborResult> KNearest(
      std::string_view query, std::size_t k,
      QueryStats* stats = nullptr) const override;

  /// All prototypes within `radius`, ascending by distance.
  std::vector<NeighborResult> RangeSearch(std::string_view query,
                                          double radius,
                                          QueryStats* stats = nullptr) const;

  /// Distance evaluations spent building the tree.
  std::uint64_t preprocessing_computations() const {
    return preprocessing_computations_;
  }

 private:
  struct Node {
    std::size_t point = 0;       // prototype index of the vantage point
    double radius = 0.0;         // median distance to the subtree points
    std::int32_t inside = -1;    // child with d <= radius
    std::int32_t outside = -1;   // child with d > radius
  };

  std::int32_t Build(std::vector<std::size_t>& items, std::size_t lo,
                     std::size_t hi, std::uint64_t seed);
  void Search(std::int32_t node, std::string_view query, std::size_t k,
              std::vector<NeighborResult>& best, QueryStats& stats) const;
  void SearchRange(std::int32_t node, std::string_view query, double radius,
                   std::vector<NeighborResult>& hits, QueryStats& stats) const;

  PrototypeStoreRef prototypes_;
  StringDistancePtr distance_;
  std::vector<Node> nodes_;
  std::int32_t root_ = -1;
  std::uint64_t preprocessing_computations_ = 0;
};

}  // namespace cned

#endif  // CNED_SEARCH_VP_TREE_H_
