#include "search/aesa.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/parallel.h"

namespace cned {

Aesa::Aesa(PrototypeStoreRef prototypes, StringDistancePtr distance)
    : prototypes_(prototypes), distance_(std::move(distance)) {
  if (prototypes_->empty()) {
    throw std::invalid_argument("Aesa: empty prototype set");
  }
  const PrototypeStore& protos = store();
  const std::size_t n = protos.size();
  matrix_.assign(n * n, 0.0);
  // Parallel over rows: row i fills pairs (i, i+1..n-1). Writes to (i, j)
  // and its mirror (j, i) are disjoint across tasks because each unordered
  // pair belongs to exactly one row.
  ParallelFor(n, [&](std::size_t i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      double d = distance_->Distance(protos[i], protos[j]);
      matrix_[i * n + j] = matrix_[j * n + i] = d;
    }
  });
  preprocessing_computations_ += static_cast<std::uint64_t>(n) * (n - 1) / 2;
}

// A candidate whose lower bound reaches the k-th incumbent cannot strictly
// improve on it and is eliminated; the same k-th incumbent caps every
// kernel evaluation.
std::vector<NeighborResult> Aesa::KNearest(std::string_view query,
                                           std::size_t k,
                                           QueryStats* stats) const {
  const PrototypeStore& protos = store();
  const std::size_t n = protos.size();
  k = std::min(k, n);
  if (k == 0) return {};
  // Length-difference lower bounds seed the elimination for free, as in
  // LAESA's "zeroth pivot": one flat pass over the packed length array.
  std::vector<double> lower(n);
  distance_->LengthLowerBounds(query.size(), protos.lengths_data(), n,
                               lower.data());
  std::vector<bool> alive(n, true);
  std::size_t alive_count = n;

  const double inf = std::numeric_limits<double>::infinity();
  std::vector<NeighborResult> best;
  best.reserve(k + 1);
  auto kth = [&]() { return best.size() < k ? inf : best.back().distance; };
  std::uint64_t computations = 0, abandons = 0;

  std::size_t s = 0;
  while (alive_count > 0) {
    alive[s] = false;
    --alive_count;

    // The k-th incumbent is the kernel bound: only a strict improvement is
    // ever used, so an evaluation that provably reaches it may stop early.
    // An abandoned evaluation still certifies d(q, s) >= cap, giving the
    // one-sided lower bound d(q, i) >= cap - d(s, i) for every survivor.
    const double cap = kth();
    double d = distance_->DistanceBounded(query, protos[s], cap);
    ++computations;
    const bool abandoned = d >= cap;
    if (abandoned) {
      ++abandons;
    } else {
      InsertNeighborTopK(best, k, {s, d});
    }

    const double bound = kth();
    std::size_t next = n;
    double next_key = inf;
    for (std::size_t i = 0; i < n; ++i) {
      if (!alive[i]) continue;
      double g = abandoned ? cap - Dist(s, i) : std::abs(d - Dist(s, i));
      if (g > lower[i]) lower[i] = g;
      if (lower[i] >= bound) {
        alive[i] = false;
        --alive_count;
        continue;
      }
      if (lower[i] < next_key) {
        next_key = lower[i];
        next = i;
      }
    }
    if (next == n) break;
    s = next;
  }

  if (stats != nullptr) {
    stats->distance_computations += computations;
    stats->bounded_abandons += abandons;
  }
  return best;
}

}  // namespace cned
