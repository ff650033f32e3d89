#ifndef CNED_SEARCH_NN_SEARCHER_H_
#define CNED_SEARCH_NN_SEARCHER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace cned {

/// Result of a nearest-neighbour query.
struct NeighborResult {
  std::size_t index = 0;  ///< index into the prototype set
  double distance = 0.0;  ///< distance to the query
};

/// The deterministic result order every searcher and merge in the library
/// shares: ascending distance, ties broken by the lower prototype index.
inline bool NeighborLess(const NeighborResult& a, const NeighborResult& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.index < b.index;
}

/// Inserts `r` into `best` — the current top-k, kept sorted by
/// `NeighborLess` — when it qualifies, evicting the k-th entry if full.
/// The default gate admits `r` only when it *strictly improves* on the
/// k-th distance (the adaptive sweeps' semantics: a distance tie never
/// displaces an incumbent — the same ">= eliminates" convention the
/// bounded kernels rely on). `admit_ties` switches to the full
/// (distance, index) order, used when seeding incumbents from already-paid
/// pivot evaluations, where an equal-distance lower-index prototype wins.
///
/// Every index family shares this one helper so the bit-identity
/// contracts (flat vs sharded, sequential vs batched) rest on a single
/// tie-break implementation.
inline void InsertNeighborTopK(std::vector<NeighborResult>& best,
                               std::size_t k, const NeighborResult& r,
                               bool admit_ties = false) {
  if (best.size() >= k) {
    const bool qualifies = admit_ties ? NeighborLess(r, best.back())
                                      : r.distance < best.back().distance;
    if (!qualifies) return;
  }
  best.insert(std::lower_bound(best.begin(), best.end(), r, NeighborLess), r);
  if (best.size() > k) best.pop_back();
}

/// Per-query cost counters, shared by every index family (paper §4.3
/// reports distance computations as the primary cost measure).
struct QueryStats {
  std::uint64_t distance_computations = 0;
  /// Distance evaluations whose result reached the bound the search passed
  /// via `DistanceBounded` (its incumbent best / radius). Kernels with a
  /// real bounded implementation cut these short mid-DP; for a kernel using
  /// the exact fallback the count still reflects how many evaluations a
  /// bounded kernel *could* abandon on this workload.
  std::uint64_t bounded_abandons = 0;
  /// Subset of `distance_computations` spent on query-pivot evaluations
  /// (LAESA family only; other indexes leave it 0). The batched pivot stage
  /// of the query engine exists to shrink exactly this number, so the shard
  /// benches report it separately.
  std::uint64_t pivot_computations = 0;
  /// Shards the distributed serving tier dropped from this query (crashed,
  /// timed out, or returned a malformed reply — see src/serve/router.h).
  /// Always 0 for in-process searchers and for healthy distributed queries,
  /// so it rides along in the flat-vs-distributed bit-identity comparisons.
  std::uint64_t shards_degraded = 0;

  /// Merge counters from another query (batch aggregation).
  QueryStats& operator+=(const QueryStats& other) {
    distance_computations += other.distance_computations;
    bounded_abandons += other.bounded_abandons;
    pivot_computations += other.pivot_computations;
    shards_degraded += other.shards_degraded;
    return *this;
  }
};

inline QueryStats operator+(QueryStats a, const QueryStats& b) {
  a += b;
  return a;
}

inline bool operator==(const QueryStats& a, const QueryStats& b) {
  return a.distance_computations == b.distance_computations &&
         a.bounded_abandons == b.bounded_abandons &&
         a.pivot_computations == b.pivot_computations &&
         a.shards_degraded == b.shards_degraded;
}

/// Common interface over nearest-neighbour searchers (exhaustive, LAESA,
/// AESA, VP-tree, BK-tree) so classifiers, the batch engine and experiment
/// harnesses are generic in the search algorithm, as in the paper's Table 2
/// (LAESA vs exhaustive columns).
class NearestNeighborSearcher {
 public:
  virtual ~NearestNeighborSearcher() = default;

  /// The k nearest prototypes, closest first; fewer when the index holds
  /// fewer, none for k = 0. Accumulates cost counters into `stats` when
  /// non-null. Implementations must be safe to call concurrently from
  /// multiple threads (the batch engine relies on it).
  virtual std::vector<NeighborResult> KNearest(std::string_view query,
                                               std::size_t k,
                                               QueryStats* stats = nullptr)
      const = 0;

  /// The nearest prototype: `KNearest(query, 1, stats)`'s only entry, so
  /// the 1-NN search of every family is its k-NN search. Throws
  /// std::out_of_range when the index holds no prototype (a mutable index
  /// after removing everything).
  NeighborResult Nearest(std::string_view query,
                         QueryStats* stats = nullptr) const {
    const std::vector<NeighborResult> best = KNearest(query, 1, stats);
    if (best.empty()) throw std::out_of_range("Nearest: empty index");
    return best.front();
  }

  /// Number of prototypes indexed.
  virtual std::size_t size() const = 0;
};

}  // namespace cned

#endif  // CNED_SEARCH_NN_SEARCHER_H_
