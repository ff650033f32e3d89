#include "search/mutable_segment.h"

#include <algorithm>
#include <utility>

#include "search/exhaustive.h"
#include "search/sweep_kernel.h"

namespace cned {

namespace {

// Copy-on-write: the part `p` points at, copied first when another owner
// shares it.
template <typename T>
T& Own(std::shared_ptr<T>& p) {
  if (p.use_count() > 1) p = std::make_shared<T>(*p);
  return *p;
}

}  // namespace

bool Tombstones::IsDead(std::size_t slot) const {
  return bits_ && TestTombstone(bits_->data(), slot);
}

bool Tombstones::Kill(std::size_t slot) {
  if (IsDead(slot)) return false;
  if (!bits_) {
    bits_ = std::make_shared<std::vector<std::uint64_t>>(
        TombstoneWords(size_), 0);
  }
  SetTombstone(Own(bits_).data(), slot);
  ++dead_;
  return true;
}

void Tombstones::Grow(std::size_t size) {
  size_ = size;
  if (bits_ && bits_->size() < TombstoneWords(size)) {
    Own(bits_).resize(TombstoneWords(size), 0);
  }
}

MutableSegment::MutableSegment()
    : store_(std::make_shared<PrototypeStore>()),
      ids_(std::make_shared<std::vector<std::uint64_t>>()) {}

MutableSegment::MutableSegment(PrototypeStore store,
                               std::vector<std::uint64_t> ids)
    : store_(std::make_shared<PrototypeStore>(std::move(store))),
      ids_(std::make_shared<std::vector<std::uint64_t>>(std::move(ids))),
      tombs_(ids_->size()) {}

bool MutableSegment::Insert(std::uint64_t id, std::string_view s) {
  if (!ids_->empty() && id <= ids_->back()) return false;
  Own(store_).Add(s);
  Own(ids_).push_back(id);
  tombs_.Grow(count());
  return true;
}

bool MutableSegment::Remove(std::uint64_t id) {
  const std::size_t slot = Locate(id);
  return slot != kNone && tombs_.Kill(slot);
}

std::size_t MutableSegment::Locate(std::uint64_t id) const {
  const auto it = std::lower_bound(ids_->begin(), ids_->end(), id);
  if (it == ids_->end() || *it != id) return kNone;
  const auto slot = static_cast<std::size_t>(it - ids_->begin());
  return tombs_.IsDead(slot) ? kNone : slot;
}

void MutableSegment::Scan(const StringDistance& distance,
                          std::string_view query, double cap0, std::size_t k,
                          std::vector<NeighborResult>* best,
                          QueryStats* stats) const {
  BoundedScan(distance, query, *store_, mask(), ids_->data(), cap0, k, best,
              stats);
}

MutableSegment MutableSegment::Tail(std::size_t from) const {
  MutableSegment out;
  for (std::size_t j = from; j < count(); ++j) {
    out.Insert(id(j), view(j));
    if (IsDead(j)) out.tombs_.Kill(j - from);
  }
  return out;
}

}  // namespace cned
