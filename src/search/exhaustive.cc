#include "search/exhaustive.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>

#include "search/sweep_kernel.h"

namespace cned {

ExhaustiveSearch::ExhaustiveSearch(PrototypeStoreRef prototypes,
                                   StringDistancePtr distance)
    : prototypes_(prototypes), distance_(std::move(distance)) {
  if (prototypes_->empty()) {
    throw std::invalid_argument("ExhaustiveSearch: empty prototype set");
  }
}

void BoundedScan(const StringDistance& distance, std::string_view query,
                 const PrototypeStore& store, const std::uint64_t* tombstones,
                 const std::uint64_t* ids, double cap0, std::size_t k,
                 std::vector<NeighborResult>* best, QueryStats* stats) {
  if (k == 0) return;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::unique_ptr<PreparedDistance> prepared = distance.Prepare(query);
  std::uint64_t computations = 0, abandons = 0;
  for (std::size_t j = 0; j < store.size(); ++j) {
    if (tombstones != nullptr && TestTombstone(tombstones, j)) continue;
    // Only a strict improvement on the k-th incumbent is admitted, so it
    // bounds the kernel. Scanning in slot order keeps tie handling
    // identical to the full-sort baseline (an equal later slot never
    // evicts an earlier one).
    const double kth = best->size() < k ? kInf : best->back().distance;
    const double cap = cap0 < kth ? cap0 : kth;
    const double d = prepared->Bounded(store.view(j), cap);
    ++computations;
    if (d >= cap) {
      ++abandons;
      continue;
    }
    InsertNeighborTopK(*best, k,
                       {ids != nullptr ? static_cast<std::size_t>(ids[j]) : j,
                        d});
  }
  if (stats != nullptr) {
    stats->distance_computations += computations;
    stats->bounded_abandons += abandons;
  }
}

std::vector<NeighborResult> ExhaustiveSearch::KNearest(std::string_view query,
                                                       std::size_t k,
                                                       QueryStats* stats) const {
  std::vector<NeighborResult> best;
  best.reserve(std::min(k, size()) + 1);
  BoundedScan(*distance_, query, store(), nullptr, nullptr,
              std::numeric_limits<double>::infinity(), k, &best, stats);
  return best;
}

}  // namespace cned
