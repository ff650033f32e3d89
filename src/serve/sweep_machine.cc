#include "serve/sweep_machine.h"

#include <algorithm>
#include <limits>

#include "serve/wire.h"

namespace cned {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// The router runs the exact sweep: the lazy step's elimination slack.
constexpr double kExactSlack = 1.0;

}  // namespace

std::size_t SweepShape::ShardOf(std::size_t id) const {
  const auto it = std::upper_bound(bases.begin() + 1, bases.end(), id);
  return static_cast<std::size_t>(it - (bases.begin() + 1));
}

std::size_t SweepWorld::LiveTotal(std::size_t n) const {
  std::size_t delta = 0;
  for (const std::size_t v : delta_live) delta += v;
  return n - base_dead_total + delta;
}

SweepMachine::SweepMachine(const SweepShape& shape, const SweepWorld& world,
                           std::string_view query, std::size_t k,
                           const double* row)
    : shape_(shape),
      world_(world),
      query_(query),
      row_(row),
      masked_(world.base_dead_total > 0),
      k_(std::min(k, world.LiveTotal(shape.n()))),
      views_(shape.shard_count()) {
  if (k_ == 0) return;
  best_.reserve(k_ + 1);
  if (row_ == nullptr) {
    // Legacy start: the first pivot, as in process. The masked start is
    // the best survivor of the begin passes instead — tombstoned slots
    // are already gone, and a dead global pivot 0 must not be visited.
    if (!masked_) start_ = shape_.pivots[0];
    return;
  }
  // The row sweep charges the row evaluations here, once per query, as
  // the in-process batch engine charges them; they seed the incumbents
  // with ties admitted, as the row is already paid for.
  const std::size_t np = shape_.pivots.size();
  stats_.distance_computations += np;
  stats_.pivot_computations += np;
  for (std::size_t p = 0; p < np; ++p) {
    // A tombstoned pivot's evaluation still tightens every worker's bounds
    // (its row is broadcast in the begin, an admissible use), but it must
    // never become an incumbent — it is no longer a member of the live set.
    if (!world_.base_tombs.empty() &&
        TestTombstone(world_.base_tombs.data(), shape_.pivots[p])) {
      continue;
    }
    InsertNeighborTopK(best_, k_, {shape_.pivots[p], row_[p]},
                       /*admit_ties=*/true);
  }
}

double SweepMachine::Kth() const {
  return best_.size() < k_ ? kInf : best_.back().distance;
}

FrameType SweepMachine::begin_type() const {
  return row_ == nullptr ? FrameType::kBeginLazy : FrameType::kBeginRow;
}

FrameType SweepMachine::step_type() const {
  return row_ == nullptr ? FrameType::kStep : FrameType::kStepRow;
}

std::vector<char> SweepMachine::BeginPayload() const {
  PayloadWriter w;
  w.Str(query_);
  if (row_ == nullptr) {
    w.U32(masked_ ? 1u : 0u);
  } else {
    const std::size_t np = shape_.pivots.size();
    w.F64(Kth());
    w.U64(np);
    w.Raw(row_, np * sizeof(double));
  }
  return std::move(w.buf);
}

bool SweepMachine::AbsorbBegin(std::size_t s, const std::vector<char>& reply) {
  if (row_ == nullptr && !masked_) {
    // Legacy reply shape: the shard's full live and pivot counts.
    PayloadReader r(reply);
    const std::size_t live = r.U64();
    const std::size_t live_pivots = r.U64();
    if (!r.Done() || live != shape_.shard_size(s)) return false;
    views_[s].live = live;
    views_[s].live_pivots = live_pivots;
    return true;
  }
  if (!AbsorbStep(s, reply)) return false;
  // The mask pass drops exactly the tombstoned slots (every live slot's
  // length bound is finite), so the survivor count is an integrity check
  // just like the legacy full count.
  return row_ != nullptr ||
         views_[s].live == shape_.shard_size(s) - world_.shard_dead[s];
}

// A CRC-valid reply is still outside input: its candidate ids index the
// router's shape and pick the shard an eval goes to, so each must lie in
// the replying shard's segment, and its survivor count within the shard.
// The row begin's reply has the same shape.
bool SweepMachine::AbsorbStep(std::size_t s, const std::vector<char>& reply) {
  PayloadReader r(reply);
  const WireCompact wc = DecodeCompact(r);
  const auto in_shard = [&](std::size_t id) {
    return id == kSweepNone ||
           (id >= shape_.bases[s] && id < shape_.bases[s + 1]);
  };
  const SweepCompactResult& pass = wc.pass;
  if (!r.Done() || pass.live > shape_.shard_size(s) || !in_shard(pass.next) ||
      !in_shard(pass.next_pivot) ||
      (pass.next_pivot != kSweepNone &&
       shape_.pivot_rank[pass.next_pivot] < 0)) {
    return false;
  }
  ShardView& v = views_[s];
  v.last = pass;
  v.live = pass.live;
  // The row sweep's adaptive phase never revisits pivots.
  v.live_pivots = row_ == nullptr ? wc.live_pivots : 0;
  return true;
}

std::size_t SweepMachine::live() const {
  std::size_t live = 0;
  for (const ShardView& v : views_) {
    if (v.active) live += v.live;
  }
  return live;
}

std::size_t SweepMachine::live_pivots() const {
  std::size_t live = 0;
  for (const ShardView& v : views_) {
    if (v.active) live += v.live_pivots;
  }
  return live;
}

std::size_t SweepMachine::Next() {
  std::size_t next = kSweepNone, next_pivot = kSweepNone;
  double next_key = kInf, next_pivot_key = kInf;
  for (const ShardView& v : views_) {
    if (!v.active) continue;
    if (v.last.next != kSweepNone && v.last.next_key < next_key) {
      next_key = v.last.next_key;
      next = v.last.next;
    }
    if (v.last.next_pivot != kSweepNone &&
        v.last.next_pivot_key < next_pivot_key) {
      next_pivot_key = v.last.next_pivot_key;
      next_pivot = v.last.next_pivot;
    }
  }
  if (live() == 0) {
    cand_ = kSweepNone;
  } else if (start_ != kSweepNone) {
    cand_ = start_;
  } else {
    cand_ = live_pivots() > 0 ? next_pivot : next;
  }
  start_ = kSweepNone;
  if (cand_ == kSweepNone) return cand_;
  cand_shard_ = shape_.ShardOf(cand_);
  cand_rank_ = row_ == nullptr ? shape_.pivot_rank[cand_] : -1;
  cap_ = cand_rank_ >= 0 ? kInf : Kth();
  return cand_;
}

std::vector<char> SweepMachine::EvalPayload() const {
  PayloadWriter w;
  w.U64(cand_);
  w.F64(cap_);
  return std::move(w.buf);
}

void SweepMachine::AbsorbEval(double d) {
  cand_d_ = d;
  ++stats_.distance_computations;
  if (cand_rank_ >= 0) ++stats_.pivot_computations;
  if (d >= cap_) {
    ++stats_.bounded_abandons;
  } else {
    InsertNeighborTopK(best_, k_, {cand_, d});
  }
}

bool SweepMachine::AbsorbEvalReply(const std::vector<char>& reply) {
  PayloadReader r(reply);
  const double d = r.F64();
  if (!r.Done()) return false;
  AbsorbEval(d);
  return true;
}

std::vector<char> SweepMachine::StepPayload() const {
  // The elimination radius tightens with the new incumbent.
  PayloadWriter w;
  w.U32(static_cast<std::uint32_t>(cand_));
  if (row_ == nullptr) {
    w.I32(cand_rank_);
    w.F64(cand_d_);
    w.F64(kExactSlack);
  }
  w.F64(Kth());
  return std::move(w.buf);
}

void SweepMachine::Drop(std::size_t s) {
  if (!views_[s].active) return;
  views_[s].active = false;
  missing_.push_back(s);
}

void SweepMachine::Expire() {
  for (std::size_t s = 0; s < views_.size(); ++s) {
    if (views_[s].active && views_[s].live > 0) missing_.push_back(s);
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
  w.F64(Kth());
  w.U64(k_);
  return std::move(w.buf);
}

bool SweepMachine::AbsorbDelta(const std::vector<char>& reply) {
  PayloadReader r(reply);
  const std::size_t mark = delta_hits_.size();
  const std::uint64_t count = r.U64();
  bool ok = r.ok() && count <= k_;  // a worker returns at most k hits
  for (std::uint64_t i = 0; ok && i < count; ++i) {
    const std::uint64_t id = r.U64();
    const double d = r.F64();
    ok = r.ok();
    if (ok) delta_hits_.push_back({static_cast<std::size_t>(id), d});
  }
  const std::uint64_t comps = r.U64();
  const std::uint64_t abandons = r.U64();
  if (!ok || !r.Done()) {
    // Partially decoded garbage: drop what it contributed.
    delta_hits_.resize(mark);
    return false;
  }
  stats_.distance_computations += comps;
  stats_.bounded_abandons += abandons;
  return true;
}

void SweepMachine::Finish(ServeResult* res) {
  // The gathered delta hits are sorted globally by NeighborLess and
  // strict-merged, which reproduces the (distance, id) tie-break exactly:
  // all base ids < all delta ids, and within the delta the sort puts the
  // lower id first at equal distance.
  std::sort(delta_hits_.begin(), delta_hits_.end(), NeighborLess);
  for (const NeighborResult& h : delta_hits_) InsertNeighborTopK(best_, k_, h);
  std::sort(missing_.begin(), missing_.end());
  missing_.erase(std::unique(missing_.begin(), missing_.end()),
                 missing_.end());
  res->neighbors = std::move(best_);
  res->stats = stats_;
  res->stats.shards_degraded = missing_.size();
  res->partial = !missing_.empty();
  res->missing_shards = std::move(missing_);
}

}  // namespace cned
