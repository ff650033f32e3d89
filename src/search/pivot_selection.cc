#include "search/pivot_selection.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "common/parallel.h"

namespace cned {

namespace {

// Candidates per ParallelFor task in one round's min-distance update.
constexpr std::size_t kChunk = 64;

// Shared body: `StoreT` only needs size() and operator[] over the global
// index space, which both the flat and the sharded store provide — so both
// overloads pick the identical pivot sequence on the same strings.
//
// Each round evaluates `DistanceBounded(pivot, i, min_dist[i])` in place of
// `Distance`, and the selection is unchanged: the update is
// min_dist[i] = min(min_dist[i], d), so a bounded result >= min_dist[i]
// leaves it as it was, and a result below it is the exact `Distance` (the
// same double, per the `DistanceBounded` contract). The update runs in
// chunks through ParallelFor; each i is written by one chunk only, and the
// argmax is one sequential strict-`>` scan afterwards, so the first index
// still wins ties and the pivots are the same for every thread count.
// Prototypes at 0 (the pivots and their duplicates) can win the scan only
// when best <= 0, which ends the selection.
template <typename StoreT>
std::vector<std::size_t> SelectPivotsMaxMinImpl(const StoreT& prototypes,
                                                const StringDistance& distance,
                                                std::size_t count) {
  const std::size_t n = prototypes.size();
  if (count > n) {
    throw std::invalid_argument("SelectPivotsMaxMin: count > prototypes");
  }
  std::vector<std::size_t> pivots;
  pivots.reserve(count);
  if (count == 0) return pivots;

  std::vector<double> min_dist(n, std::numeric_limits<double>::infinity());
  std::size_t current = 0;
  pivots.push_back(current);
  while (pivots.size() < count) {
    const std::string_view pivot = prototypes[current];
    ParallelFor((n + kChunk - 1) / kChunk, [&](std::size_t chunk) {
      const std::size_t end = std::min(n, (chunk + 1) * kChunk);
      for (std::size_t i = chunk * kChunk; i < end; ++i) {
        if (min_dist[i] == 0.0) continue;  // already a pivot (or duplicate)
        const double d =
            distance.DistanceBounded(pivot, prototypes[i], min_dist[i]);
        min_dist[i] = std::min(min_dist[i], d);
      }
    });
    std::size_t next = 0;
    double best = -1.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (min_dist[i] > best) {
        best = min_dist[i];
        next = i;
      }
    }
    if (best <= 0.0) break;  // all remaining prototypes coincide with pivots
    min_dist[next] = 0.0;
    pivots.push_back(next);
    current = next;
  }
  return pivots;
}

}  // namespace

std::vector<std::size_t> SelectPivotsMaxMin(const PrototypeStore& prototypes,
                                            const StringDistance& distance,
                                            std::size_t count) {
  return SelectPivotsMaxMinImpl(prototypes, distance, count);
}

std::vector<std::size_t> SelectPivotsMaxMin(
    const ShardedPrototypeStore& prototypes, const StringDistance& distance,
    std::size_t count) {
  return SelectPivotsMaxMinImpl(prototypes, distance, count);
}

std::vector<std::size_t> SelectPivotsMaxMin(
    const std::vector<std::string>& prototypes, const StringDistance& distance,
    std::size_t count) {
  return SelectPivotsMaxMin(PrototypeStore(prototypes), distance, count);
}

std::vector<std::size_t> SelectPivotsRandom(std::size_t n_prototypes,
                                            std::size_t count, Rng& rng) {
  if (count > n_prototypes) {
    throw std::invalid_argument("SelectPivotsRandom: count > prototypes");
  }
  std::vector<std::size_t> all(n_prototypes);
  for (std::size_t i = 0; i < n_prototypes; ++i) all[i] = i;
  rng.Shuffle(all);
  all.resize(count);
  return all;
}

}  // namespace cned
