#ifndef CNED_SEARCH_PIVOT_SELECTION_H_
#define CNED_SEARCH_PIVOT_SELECTION_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datasets/prototype_store.h"
#include "datasets/sharded_prototype_store.h"
#include "distances/distance.h"

namespace cned {

/// Greedy maximum-minimum-distance pivot (base prototype) selection, the
/// strategy of the LAESA paper (Micó, Oncina & Vidal 1994): start from
/// prototype 0 and repeatedly add the prototype whose minimum distance to the
/// already-chosen pivots is largest (ties go to the lowest index). Returns
/// `count` indices, or fewer when every remaining prototype duplicates a
/// pivot.
///
/// Costs count * |prototypes| distance evaluations, but each is bounded:
/// a round evaluates `DistanceBounded(pivot, i, min_dist[i])`, which can
/// abandon once the result reaches the candidate's current minimum — such
/// a result could not change it, and one below it is exactly `Distance`.
/// Each round's updates run in chunks through `ParallelFor` (inline when
/// called from a ParallelFor body) and the argmax is one sequential scan,
/// so the selection is identical to the sequential loop over unbounded
/// `Distance` calls, at every thread count. `distance` must be safe to
/// call concurrently, as every registered kernel is.
std::vector<std::size_t> SelectPivotsMaxMin(const PrototypeStore& prototypes,
                                            const StringDistance& distance,
                                            std::size_t count);

/// Sharded overload over the global index space — identical selection to a
/// flat store of the same strings (the sharded index's bit-identity with
/// the flat one starts here), without materialising a flat copy.
std::vector<std::size_t> SelectPivotsMaxMin(
    const ShardedPrototypeStore& prototypes, const StringDistance& distance,
    std::size_t count);

/// Convenience overload: packs `prototypes` into a temporary store.
std::vector<std::size_t> SelectPivotsMaxMin(
    const std::vector<std::string>& prototypes, const StringDistance& distance,
    std::size_t count);

/// Uniform random pivots (the ablation baseline).
std::vector<std::size_t> SelectPivotsRandom(std::size_t n_prototypes,
                                            std::size_t count, Rng& rng);

}  // namespace cned

#endif  // CNED_SEARCH_PIVOT_SELECTION_H_
