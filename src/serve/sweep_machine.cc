#include "serve/sweep_machine.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "serve/wire.h"

namespace cned {

std::size_t SweepShape::ShardOf(std::size_t id) const {
  const auto it = std::upper_bound(bases.begin() + 1, bases.end(), id);
  return static_cast<std::size_t>(it - (bases.begin() + 1));
}

std::size_t SweepWorld::LiveTotal(std::size_t n) const {
  std::size_t delta = 0;
  for (const std::size_t v : delta_live) delta += v;
  return n - base.dead() + delta;
}

SweepMachine::SweepMachine(const SweepShape& shape, const SweepWorld& world,
                           const StringDistance& distance,
                           std::string_view query, std::size_t k,
                           const double* row)
    : shape_(shape),
      world_(world),
      query_(query),
      k_(std::min(k, world.LiveTotal(shape.n()))),
      inc_(k_),
      views_(shape.shard_count()) {
  if (k_ == 0) return;
  const PivotIds& pivots = shape_.pivots;
  const std::size_t np = pivots.size();
  const auto dead = [&](std::size_t id) { return world_.base.IsDead(id); };
  if (row == nullptr) {
    // The pivot phase, as in process: length bounds, the tombstoned
    // pivots at +inf, then one visit per surviving pivot, evaluated here
    // from the manifest's strings.
    std::vector<std::uint32_t> lens(np);
    std::vector<double> bounds(np);
    for (std::size_t j = 0; j < np; ++j) {
      lens[j] = static_cast<std::uint32_t>(
          shape_.pivot_strings[pivots.ordinals()[j]].size());
    }
    distance.LengthLowerBounds(query_.size(), lens.data(), np, bounds.data());
    for (std::size_t j = 0; j < np; ++j) {
      if (dead(pivots.sorted()[j])) {
        bounds[j] = std::numeric_limits<double>::infinity();
      }
    }
    const std::unique_ptr<PreparedDistance> prepared =
        distance.Prepare(query_);
    cned::VisitPivots(
        pivots, shape_.block.view(), world_.base.dead() > 0, inc_,
        bounds.data(),
        [&](std::size_t id, std::size_t rank) {
          const double cap = inc_.Cap(/*is_pivot=*/true);
          const double d =
              prepared->Bounded(shape_.pivot_strings[rank], cap);
          inc_.Absorb(id, d, cap, /*is_pivot=*/true);
          return d;
        },
        &rows_);
    return;
  }
  // The row sweep charges the row evaluations here, once per query, as
  // the in-process batch engine charges them, and seeds the incumbents.
  inc_.stats().distance_computations += np;
  inc_.stats().pivot_computations += np;
  // A tombstoned pivot's evaluation still tightens every worker's bounds
  // (its row is broadcast in the begin, an admissible use), but it must
  // never become an incumbent — it is no longer a member of the live set.
  inc_.SeedRow(pivots.ids(), row,
               [&](std::size_t p) { return dead(pivots.ids()[p]); });
  rows_.reserve(np);
  for (std::size_t p = 0; p < np; ++p) rows_.push_back({p, row[p]});
}

std::vector<char> SweepMachine::BeginPayload() const {
  PayloadWriter w;
  w.Str(query_);
  w.F64(inc_.Kth());
  w.U64(rows_.size());
  for (const PivotRow& r : rows_) {
    w.U32(static_cast<std::uint32_t>(r.rank));
    w.F64(r.d);
  }
  return std::move(w.buf);
}

bool SweepMachine::AbsorbBegin(std::size_t s, const std::vector<char>& reply) {
  PayloadReader r(reply);
  SweepCompactResult head;
  if (r.U64() != world_.shard_dead[s] || !DecodeHead(s, r, &head)) {
    return false;
  }
  views_[s].head = head;
  return true;
}

// A CRC-valid reply is still outside input: its candidate id indexes the
// router's shape and picks the shard an eval goes to, so it must lie in
// the replying shard's segment, and a NaN bound would never be visited
// nor end the sweep.
bool SweepMachine::DecodeHead(std::size_t s, PayloadReader& r,
                              SweepCompactResult* head) const {
  *head = DecodeStreamHead(r);
  const bool valid =
      head->next == kSweepNone ||
      (head->next >= shape_.bases[s] && head->next < shape_.bases[s + 1] &&
       head->next_key >= 0.0);
  return r.Done() && valid;
}

// The heads' bounds only rise and the k-th incumbent only falls, so the
// first least head at or above the incumbent ends the sweep, as the
// in-process stream's does.
std::size_t SweepMachine::Next() {
  SweepCompactResult merged;
  for (const ShardView& v : views_) {
    if (v.active) FoldSegmentMinima(v.head, &merged);
  }
  const bool visit =
      merged.next != kSweepNone && merged.next_key < inc_.Kth();
  cand_ = visit ? merged.next : kSweepNone;
  if (cand_ == kSweepNone) return cand_;
  cand_key_ = merged.next_key;
  cand_shard_ = shape_.ShardOf(cand_);
  cap_ = inc_.Cap(/*is_pivot=*/false);
  return cand_;
}

std::vector<char> SweepMachine::EvalPayload() const {
  PayloadWriter w;
  w.U64(cand_);
  w.F64(cap_);
  return std::move(w.buf);
}

// A CRC-valid reply is still outside input: a distance is >= 0 or +inf,
// as a NaN would reach every later cap through Kth(), and a successor at
// or before the candidate would visit it again or loop.
bool SweepMachine::AbsorbEvalReply(const std::vector<char>& reply) {
  PayloadReader r(reply);
  const double d = r.F64();
  SweepCompactResult next;
  if (!DecodeHead(cand_shard_, r, &next) || !(d >= 0.0)) return false;
  const bool after = next.next == kSweepNone || next.next_key > cand_key_ ||
                     (next.next_key == cand_key_ && next.next > cand_);
  if (!after) return false;
  inc_.Absorb(cand_, d, cap_, /*is_pivot=*/false);
  views_[cand_shard_].head = next;
  return true;
}

void SweepMachine::Drop(std::size_t s) {
  if (!views_[s].active) return;
  views_[s].active = false;
  missing_.push_back(s);
}

void SweepMachine::Expire() {
  for (std::size_t s = 0; s < views_.size(); ++s) {
    const SweepCompactResult& head = views_[s].head;
    if (views_[s].active && head.next != kSweepNone &&
        head.next_key < inc_.Kth()) {
      missing_.push_back(s);
    }
  }
}

bool SweepMachine::HasDelta(std::size_t s) const {
  // A shard already lost to the base sweep is missing; its delta is
  // unreachable through the same dead group.
  return views_[s].active && world_.delta_live[s] > 0;
}

std::vector<char> SweepMachine::DeltaPayload() const {
  // Every scan is capped by the base sweep's incumbents; the hits merge
  // only at Finish, so the cap is the same for every shard.
  PayloadWriter w;
  w.Str(query_);
  w.F64(inc_.Kth());
  w.U64(k_);
  return std::move(w.buf);
}

// Each hit must be a delta id that shard `s` owns under the round-robin
// rule `Insert` assigns by, at a distance below the cap the scan was sent
// (the hits merge only at Finish, so Kth() still is that cap).
bool SweepMachine::AbsorbDelta(std::size_t s, const std::vector<char>& reply) {
  PayloadReader r(reply);
  const std::size_t mark = delta_hits_.size();
  const std::size_t n = shape_.n();
  const double cap = inc_.Kth();
  const std::uint64_t count = r.U64();
  bool ok = r.ok() && count <= k_;  // a worker returns at most k hits
  for (std::uint64_t i = 0; ok && i < count; ++i) {
    const std::uint64_t id = r.U64();
    const double d = r.F64();
    ok = r.ok() && id >= n && (id - n) % shape_.shard_count() == s &&
         d >= 0.0 && d < cap;
    if (ok) delta_hits_.push_back({static_cast<std::size_t>(id), d});
  }
  const std::uint64_t comps = r.U64();
  const std::uint64_t abandons = r.U64();
  if (!ok || !r.Done()) {
    // Partially decoded garbage: drop what it contributed.
    delta_hits_.resize(mark);
    return false;
  }
  inc_.stats().distance_computations += comps;
  inc_.stats().bounded_abandons += abandons;
  return true;
}

void SweepMachine::Finish(ServeResult* res) {
  // The gathered delta hits are sorted globally by NeighborLess and
  // strict-merged, which reproduces the (distance, id) tie-break exactly:
  // all base ids < all delta ids, and within the delta the sort puts the
  // lower id first at equal distance.
  std::sort(delta_hits_.begin(), delta_hits_.end(), NeighborLess);
  for (const NeighborResult& h : delta_hits_) inc_.Offer(h);
  std::sort(missing_.begin(), missing_.end());
  missing_.erase(std::unique(missing_.begin(), missing_.end()),
                 missing_.end());
  res->neighbors = inc_.Take();
  res->stats = inc_.stats();
  res->stats.shards_degraded = missing_.size();
  res->partial = !missing_.empty();
  res->missing_shards = std::move(missing_);
}

}  // namespace cned
