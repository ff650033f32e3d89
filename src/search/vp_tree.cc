#include "search/vp_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/rng.h"

namespace cned {

VpTree::VpTree(PrototypeStoreRef prototypes, StringDistancePtr distance,
               std::uint64_t seed)
    : prototypes_(prototypes), distance_(std::move(distance)) {
  if (prototypes_->empty()) {
    throw std::invalid_argument("VpTree: empty prototype set");
  }
  std::vector<std::size_t> items(prototypes_->size());
  for (std::size_t i = 0; i < items.size(); ++i) items[i] = i;
  nodes_.reserve(items.size());
  root_ = Build(items, 0, items.size(), seed);
}

std::int32_t VpTree::Build(std::vector<std::size_t>& items, std::size_t lo,
                           std::size_t hi, std::uint64_t seed) {
  if (lo >= hi) return -1;
  Rng rng(seed ^ (lo * 0x9e3779b97f4a7c15ull) ^ hi);

  // Vantage point: random element of the range, swapped to the front.
  std::size_t vp_slot = lo + rng.Index(hi - lo);
  std::swap(items[lo], items[vp_slot]);
  const std::size_t vp = items[lo];

  auto node_index = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(Node{vp, 0.0, -1, -1});
  if (hi - lo == 1) return node_index;

  // Distances from the vantage point to the remaining items; split at the
  // median so both children get half the points.
  std::vector<std::pair<double, std::size_t>> dists;
  dists.reserve(hi - lo - 1);
  for (std::size_t i = lo + 1; i < hi; ++i) {
    dists.emplace_back(
        distance_->Distance(store()[vp], store()[items[i]]),
        items[i]);
    ++preprocessing_computations_;
  }
  const std::size_t mid = dists.size() / 2;
  std::nth_element(dists.begin(),
                   dists.begin() + static_cast<std::ptrdiff_t>(mid),
                   dists.end());
  const double radius = dists[mid].first;
  // Rewrite the range as [vp, inside items (d <= radius), outside items].
  std::size_t cursor = lo + 1;
  for (const auto& [d, idx] : dists) {
    if (d <= radius) items[cursor++] = idx;
  }
  const std::size_t inside_end = cursor;
  for (const auto& [d, idx] : dists) {
    if (d > radius) items[cursor++] = idx;
  }

  nodes_[static_cast<std::size_t>(node_index)].radius = radius;
  std::int32_t inside = Build(items, lo + 1, inside_end, seed * 31 + 1);
  std::int32_t outside = Build(items, inside_end, hi, seed * 31 + 2);
  nodes_[static_cast<std::size_t>(node_index)].inside = inside;
  nodes_[static_cast<std::size_t>(node_index)].outside = outside;
  return node_index;
}

void VpTree::Search(std::int32_t node, std::string_view query, std::size_t k,
                    std::vector<NeighborResult>& best, QueryStats& stats) const {
  if (node < 0) return;
  const Node& n = nodes_[static_cast<std::size_t>(node)];
  const double incumbent = best.size() < k
                               ? std::numeric_limits<double>::infinity()
                               : best.back().distance;
  const double cap = incumbent + n.radius;
  const double d =
      distance_->DistanceBounded(query, store()[n.point], cap);
  ++stats.distance_computations;
  if (d >= cap) {
    // The kernel bound is the k-th incumbent + node radius: a vantage-point
    // distance that reaches it can neither improve the incumbent nor leave
    // the inside ball reachable (every inside point is >= d - radius >=
    // incumbent), so only the outside child can contribute.
    ++stats.bounded_abandons;
    Search(n.outside, query, k, best, stats);
    return;
  }
  InsertNeighborTopK(best, k, {n.point, d});
  const bool inside_first = d <= n.radius;
  const std::int32_t first = inside_first ? n.inside : n.outside;
  const std::int32_t second = inside_first ? n.outside : n.inside;
  // Visit the more promising side first, prune with the triangle
  // inequality: every point beyond the boundary is at least `gap` away, and
  // under strict-improvement semantics a gap that reaches the k-th
  // incumbent (re-read, since the first subtree may have tightened it) is
  // dead.
  Search(first, query, k, best, stats);
  const double gap = inside_first ? n.radius - d : d - n.radius;
  const double bound = best.size() < k
                           ? std::numeric_limits<double>::infinity()
                           : best.back().distance;
  if (gap < bound) Search(second, query, k, best, stats);
}

std::vector<NeighborResult> VpTree::KNearest(std::string_view query,
                                             std::size_t k,
                                             QueryStats* stats) const {
  k = std::min(k, prototypes_->size());
  if (k == 0) return {};
  std::vector<NeighborResult> best;
  best.reserve(k + 1);
  QueryStats local;
  Search(root_, query, k, best, local);
  if (stats != nullptr) {
    stats->distance_computations += local.distance_computations;
    stats->bounded_abandons += local.bounded_abandons;
  }
  return best;
}

void VpTree::SearchRange(std::int32_t node, std::string_view query,
                         double radius, std::vector<NeighborResult>& hits,
                         QueryStats& stats) const {
  if (node < 0) return;
  const Node& n = nodes_[static_cast<std::size_t>(node)];
  // Hits are inclusive and the inside-descent test is d <= radius + r, so
  // the kernel bound is the next value above radius + r: an abandoned
  // evaluation certifies "no hit, inside unreachable" in one stroke.
  const double cap = std::nextafter(radius + n.radius,
                                    std::numeric_limits<double>::infinity());
  const double d =
      distance_->DistanceBounded(query, store()[n.point], cap);
  ++stats.distance_computations;
  if (d >= cap) {
    ++stats.bounded_abandons;
    SearchRange(n.outside, query, radius, hits, stats);
    return;
  }
  if (d <= radius) hits.push_back({n.point, d});
  // Inside child holds points with d(vp, p) <= r: reachable only if
  // d - radius <= r; outside child only if d + radius > r.
  if (d - radius <= n.radius) SearchRange(n.inside, query, radius, hits,
                                          stats);
  if (d + radius > n.radius) SearchRange(n.outside, query, radius, hits,
                                         stats);
}

std::vector<NeighborResult> VpTree::RangeSearch(std::string_view query,
                                                double radius,
                                                QueryStats* stats) const {
  std::vector<NeighborResult> hits;
  QueryStats local;
  SearchRange(root_, query, radius, hits, local);
  std::sort(hits.begin(), hits.end(), NeighborLess);
  if (stats != nullptr) {
    stats->distance_computations += local.distance_computations;
    stats->bounded_abandons += local.bounded_abandons;
  }
  return hits;
}

}  // namespace cned
