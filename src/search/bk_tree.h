#ifndef CNED_SEARCH_BK_TREE_H_
#define CNED_SEARCH_BK_TREE_H_

#include <cstdint>
#include <map>
#include <string_view>
#include <vector>

#include "datasets/prototype_store.h"
#include "distances/distance.h"
#include "search/nn_searcher.h"

namespace cned {

/// Burkhard-Keller tree over an *integer-valued* string metric (d_E).
///
/// The classic discrete-metric index: every edge from a node is labelled by
/// the exact distance between parent and child, and a query with current
/// best radius r only needs to descend edges labelled within [d-r, d+r]
/// (triangle inequality). Included as a second "similar case" index
/// alongside the VP-tree; only meaningful for the unit-cost edit distance,
/// which is why the normalised distances need continuous-metric structures
/// like LAESA in the first place.
class BkTree final : public NearestNeighborSearcher {
 public:
  /// Shared per-query cost counters (see `cned::QueryStats`).
  using QueryStats = ::cned::QueryStats;

  /// Builds by successive insertion. `prototypes` is either a borrowed
  /// `PrototypeStore` (caller keeps it alive) or a
  /// `std::vector<std::string>` packed once into an owned store. `distance`
  /// must return non-negative integers (e.g. "dE"); throws
  /// std::invalid_argument otherwise (detected on first violation during
  /// construction).
  BkTree(PrototypeStoreRef prototypes, StringDistancePtr distance);

  /// The k nearest prototypes, closest first: the descent radius is the
  /// current k-th best distance.
  std::vector<NeighborResult> KNearest(
      std::string_view query, std::size_t k,
      QueryStats* stats = nullptr) const override;

  std::size_t size() const override { return prototypes_->size(); }

  /// The prototype set the index searches over.
  const PrototypeStore& store() const { return prototypes_.get(); }

  /// All prototypes within distance `radius` of the query (range query, the
  /// classic BK-tree use case, e.g. "suggestions within 2 edits").
  std::vector<NeighborResult> RangeSearch(std::string_view query,
                                          std::size_t radius,
                                          QueryStats* stats = nullptr) const;

 private:
  struct Node {
    std::size_t point = 0;
    std::map<std::size_t, std::int32_t> children;  // edge distance -> node
  };

  std::size_t IntDistance(std::string_view a, std::string_view b) const;

  /// Bounded variant: exact when the distance is < `cap`, otherwise returns
  /// `cap` (abandoned; the caller must have chosen `cap` so that any
  /// distance >= cap is unusable). Validates integrality only on exact
  /// values — abandoned sentinels never feed edge arithmetic.
  std::size_t BoundedIntDistance(std::string_view a, std::string_view b,
                                 double cap, bool* abandoned) const;

  PrototypeStoreRef prototypes_;
  StringDistancePtr distance_;
  std::vector<Node> nodes_;
};

}  // namespace cned

#endif  // CNED_SEARCH_BK_TREE_H_
