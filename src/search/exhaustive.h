#ifndef CNED_SEARCH_EXHAUSTIVE_H_
#define CNED_SEARCH_EXHAUSTIVE_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "datasets/prototype_store.h"
#include "distances/distance.h"
#include "search/nn_searcher.h"

namespace cned {

/// The bounded linear scan behind `ExhaustiveSearch` and both delta scans
/// of the mutable tier (`MutableLaesa`'s delta and a shard worker's
/// `ShardReplica::DeltaScan`). Visits `store`'s slots in ascending order,
/// skipping those set in the `tombstones` bitmap (null = none), and caps
/// each `DistanceBounded` at min(`cap0`, the k-th incumbent of `best`). An
/// evaluation that reaches its cap counts one abandon; any other enters
/// `best` through `InsertNeighborTopK` under id `ids[slot]` (the slot
/// itself when `ids` is null). `best` may arrive holding incumbents, sorted
/// by `NeighborLess`. Counters accumulate into `stats` when non-null;
/// k = 0 evaluates nothing.
void BoundedScan(const StringDistance& distance, std::string_view query,
                 const PrototypeStore& store, const std::uint64_t* tombstones,
                 const std::uint64_t* ids, double cap0, std::size_t k,
                 std::vector<NeighborResult>* best, QueryStats* stats);

/// Brute-force nearest-neighbour search: one distance evaluation per
/// prototype. The baseline ("Exhaustive search" column of Table 2) and the
/// correctness oracle for LAESA/AESA.
///
/// Candidates are read straight out of the flat `PrototypeStore` arena in
/// index order — a forward walk over contiguous memory. Even the brute-
/// force scan benefits from the bounded kernel engine: the incumbent best
/// (or the running k-th best) is passed to `DistanceBounded` so the
/// per-prototype DP is cut short once it provably cannot win. The returned
/// neighbours are identical to the unbounded scan.
class ExhaustiveSearch final : public NearestNeighborSearcher {
 public:
  /// Shared per-query cost counters (see `cned::QueryStats`).
  using QueryStats = ::cned::QueryStats;

  /// `prototypes` is either a borrowed `PrototypeStore` (caller keeps it
  /// alive) or a `std::vector<std::string>` packed once into an owned store.
  ExhaustiveSearch(PrototypeStoreRef prototypes, StringDistancePtr distance);

  /// The k nearest prototypes, closest first (the smaller index wins a
  /// distance tie): one `BoundedScan` over the store.
  std::vector<NeighborResult> KNearest(
      std::string_view query, std::size_t k,
      QueryStats* stats = nullptr) const override;

  std::size_t size() const override { return prototypes_->size(); }

  /// The prototype set the index searches over.
  const PrototypeStore& store() const { return prototypes_.get(); }

 private:
  PrototypeStoreRef prototypes_;
  StringDistancePtr distance_;
};

}  // namespace cned

#endif  // CNED_SEARCH_EXHAUSTIVE_H_
