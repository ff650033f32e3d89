#ifndef CNED_SEARCH_AESA_H_
#define CNED_SEARCH_AESA_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "datasets/prototype_store.h"
#include "distances/distance.h"
#include "search/nn_searcher.h"

namespace cned {

/// AESA — Approximating and Eliminating Search Algorithm (Vidal 1986).
///
/// Stores the full N x N prototype distance matrix, so *every* computed
/// query-prototype distance tightens the lower bound of every surviving
/// candidate. Achieves the fewest distance computations of the family at
/// the price of quadratic preprocessing and memory — the trade-off LAESA
/// removes (paper §4.3 and Rico-Juan & Micó 2003). Included as the
/// strong-baseline extension for the ablation benches.
class Aesa final : public NearestNeighborSearcher {
 public:
  /// Shared per-query cost counters (see `cned::QueryStats`).
  using QueryStats = ::cned::QueryStats;

  /// Precomputes all pairwise prototype distances (N(N-1)/2 evaluations).
  /// `prototypes` is either a borrowed `PrototypeStore` (caller keeps it
  /// alive) or a `std::vector<std::string>` packed once into an owned store.
  Aesa(PrototypeStoreRef prototypes, StringDistancePtr distance);

  /// The k nearest prototypes, closest first (elimination prunes against
  /// the current k-th best; abandoned evaluations still tighten every
  /// survivor one-sidedly).
  std::vector<NeighborResult> KNearest(
      std::string_view query, std::size_t k,
      QueryStats* stats = nullptr) const override;

  std::size_t size() const override { return prototypes_->size(); }

  /// The prototype set the index searches over.
  const PrototypeStore& store() const { return prototypes_.get(); }

  std::uint64_t preprocessing_computations() const {
    return preprocessing_computations_;
  }

 private:
  double Dist(std::size_t i, std::size_t j) const {
    return matrix_[i * prototypes_->size() + j];
  }

  PrototypeStoreRef prototypes_;
  StringDistancePtr distance_;
  std::vector<double> matrix_;
  std::uint64_t preprocessing_computations_ = 0;
};

}  // namespace cned

#endif  // CNED_SEARCH_AESA_H_
