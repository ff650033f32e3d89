#include "search/bk_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace cned {

std::size_t BkTree::IntDistance(std::string_view a, std::string_view b) const {
  double d = distance_->Distance(a, b);
  double rounded = std::round(d);
  if (d < 0.0 || std::abs(d - rounded) > 1e-9) {
    throw std::invalid_argument(
        "BkTree: distance is not integer-valued (use dE)");
  }
  return static_cast<std::size_t>(rounded);
}

std::size_t BkTree::BoundedIntDistance(std::string_view a, std::string_view b,
                                       double cap, bool* abandoned) const {
  double d = distance_->DistanceBounded(a, b, cap);
  if (d >= cap) {
    *abandoned = true;
    return 0;
  }
  *abandoned = false;
  double rounded = std::round(d);
  if (d < 0.0 || std::abs(d - rounded) > 1e-9) {
    throw std::invalid_argument(
        "BkTree: distance is not integer-valued (use dE)");
  }
  return static_cast<std::size_t>(rounded);
}

BkTree::BkTree(PrototypeStoreRef prototypes, StringDistancePtr distance)
    : prototypes_(prototypes), distance_(std::move(distance)) {
  if (prototypes_->empty()) {
    throw std::invalid_argument("BkTree: empty prototype set");
  }
  nodes_.reserve(prototypes_->size());
  nodes_.push_back(Node{0, {}});
  for (std::size_t i = 1; i < prototypes_->size(); ++i) {
    std::int32_t cur = 0;
    for (;;) {
      std::size_t d = IntDistance(store()[i],
                                  store()[nodes_[cur].point]);
      if (d == 0) break;  // exact duplicate: keep only the first copy
      auto it = nodes_[static_cast<std::size_t>(cur)].children.find(d);
      if (it == nodes_[static_cast<std::size_t>(cur)].children.end()) {
        nodes_.push_back(Node{i, {}});
        nodes_[static_cast<std::size_t>(cur)].children[d] =
            static_cast<std::int32_t>(nodes_.size() - 1);
        break;
      }
      cur = it->second;
    }
  }
}

std::vector<NeighborResult> BkTree::KNearest(std::string_view query,
                                             std::size_t k,
                                             QueryStats* stats) const {
  k = std::min(k, size());
  if (k == 0) return {};
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<NeighborResult> best;
  best.reserve(k + 1);
  auto kth = [&]() { return best.size() < k ? inf : best.back().distance; };
  std::uint64_t computations = 0, abandons = 0;
  std::vector<std::int32_t> stack{0};
  while (!stack.empty()) {
    const Node& node = nodes_[static_cast<std::size_t>(stack.back())];
    stack.pop_back();
    // With the k-th incumbent as the radius r, the kernel may stop once d
    // can neither improve the k-th best nor reach any child edge window
    // [e - r, e + r]: the largest edge label plus r caps every useful
    // value (distances are integers, so "+1" makes the cap exclusive).
    // Until k incumbents exist the radius is unbounded, so every node is
    // evaluated exactly and every child kept.
    double cap = kth();
    if (!node.children.empty() && cap != inf) {
      const double max_edge =
          static_cast<double>(node.children.rbegin()->first);
      cap = std::max(cap, max_edge + cap + 1.0);
    }
    bool abandoned = false;
    std::size_t d = BoundedIntDistance(query, store()[node.point], cap,
                                       &abandoned);
    ++computations;
    if (abandoned) {
      ++abandons;
      continue;  // cannot improve and every child edge is out of range
    }
    InsertNeighborTopK(best, k, {node.point, static_cast<double>(d)});
    if (kth() == inf) {
      for (const auto& [edge, child] : node.children) stack.push_back(child);
      continue;
    }
    const auto radius = static_cast<std::size_t>(kth());
    // Only edges labelled within [d - r, d + r] can contain improvements.
    const std::size_t lo = d > radius ? d - radius : 0;
    const std::size_t hi = d + radius;
    for (auto it = node.children.lower_bound(lo);
         it != node.children.end() && it->first <= hi; ++it) {
      stack.push_back(it->second);
    }
  }
  if (stats != nullptr) {
    stats->distance_computations += computations;
    stats->bounded_abandons += abandons;
  }
  return best;
}

std::vector<NeighborResult> BkTree::RangeSearch(std::string_view query,
                                                std::size_t radius,
                                                QueryStats* stats) const {
  std::vector<NeighborResult> hits;
  std::uint64_t computations = 0, abandons = 0;
  std::vector<std::int32_t> stack{0};
  while (!stack.empty()) {
    const Node& node = nodes_[static_cast<std::size_t>(stack.back())];
    stack.pop_back();
    const double max_edge =
        node.children.empty()
            ? 0.0
            : static_cast<double>(node.children.rbegin()->first);
    const double cap =
        std::max(static_cast<double>(radius),
                 max_edge + static_cast<double>(radius)) +
        1.0;
    bool abandoned = false;
    std::size_t d = BoundedIntDistance(query, store()[node.point], cap,
                                       &abandoned);
    ++computations;
    if (abandoned) {
      ++abandons;
      continue;  // beyond the radius and beyond every child edge window
    }
    if (d <= radius) hits.push_back({node.point, static_cast<double>(d)});
    const std::size_t lo = d > radius ? d - radius : 0;
    const std::size_t hi = d + radius;
    for (auto it = node.children.lower_bound(lo);
         it != node.children.end() && it->first <= hi; ++it) {
      stack.push_back(it->second);
    }
  }
  if (stats != nullptr) {
    stats->distance_computations += computations;
    stats->bounded_abandons += abandons;
  }
  return hits;
}

}  // namespace cned
