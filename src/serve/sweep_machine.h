#ifndef CNED_SERVE_SWEEP_MACHINE_H_
#define CNED_SERVE_SWEEP_MACHINE_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "search/nn_searcher.h"
#include "search/sweep_kernel.h"
#include "serve/frame.h"

namespace cned {

/// One query's answer plus its degradation and failover record.
struct ServeResult {
  std::vector<NeighborResult> neighbors;
  QueryStats stats;
  /// True when any shard's candidates were not (fully) considered — the
  /// neighbours are then exact over the surviving shards only, possibly
  /// improved by evaluations that landed before a shard was lost. A shard
  /// whose primary failed but whose standby took over is NOT partial.
  bool partial = false;
  /// True when the admission front end (serve/engine.h) refused the query
  /// under overload instead of running it; neighbors/stats are empty. The
  /// router itself never sheds — only the engine sets this.
  bool shed = false;
  /// The shards this query is missing, ascending. A shard appears here
  /// only when its *entire replica group* was lost: dead at query start,
  /// failed mid-sweep, or still live at the deadline.
  std::vector<std::size_t> missing_shards;
  /// Primary promotions performed during this query (a standby with
  /// bit-identical slab state took over mid-sweep; the result stayed
  /// exact and unflagged).
  std::size_t failovers = 0;
  /// Eval requests that were raced to a standby after the hedge delay.
  std::size_t hedged_evals = 0;
  /// Standby replicas evicted because their reply disagreed byte-for-byte
  /// with the primary's (corrupt state; the primary's reply drove the
  /// merge).
  std::size_t replicas_evicted = 0;
};

/// The router's immutable index shape, loaded from the manifest. Shard s
/// owns the global ids [bases[s], bases[s+1]).
struct SweepShape {
  std::vector<std::size_t> bases;        // size S+1
  std::vector<std::size_t> pivots;       // global pivot ids
  std::vector<std::int32_t> pivot_rank;  // global id -> ordinal or -1

  std::size_t n() const { return bases.back(); }
  std::size_t shard_count() const { return bases.size() - 1; }
  std::size_t shard_size(std::size_t s) const {
    return bases[s + 1] - bases[s];
  }
  /// The shard owning base id `id` (< n()).
  std::size_t ShardOf(std::size_t id) const;
};

/// The router-side mirror of the workers' delta/tombstone state. It drives
/// the masked begin, the k clamp, pivot seeding, the delta phase and
/// respawn replay. The router guards it with its world lock, held shared
/// for the whole life of every sweep that reads it.
struct SweepWorld {
  std::vector<std::uint64_t> base_tombs;  // bitmap over base ids; lazy
  std::vector<std::size_t> shard_dead;    // base tombstones per shard
  std::size_t base_dead_total = 0;
  std::vector<std::size_t> delta_live;    // live delta per shard

  /// Live prototypes over `n` base ids: base + inserts - removals.
  std::size_t LiveTotal(std::size_t n) const;
};

/// One query's distributed LAESA sweep as a state machine: every decision
/// of `ShardedLaesa`'s sweep (paper Figs. 3-4: select the minimal-bound
/// candidate, evaluate it, tighten, eliminate), with the per-shard passes
/// left to the workers. It does no I/O and takes no locks: an executor
/// sends the payloads it builds, feeds back the replies, and reports lost
/// shards. Two executors drive it — the router's robust per-query path and
/// the multiplexed `DriveSweeps` legs — so both make identical decisions
/// on identical values in identical order, and a healthy distributed query
/// is bit-identical (neighbours, distances and QueryStats) to the
/// in-process index.
///
/// The two sweep kinds differ only in data:
///   * lazy (`row == nullptr`, the distributed `ShardedLaesa::Nearest`):
///     kBeginLazy / kStep frames, and a visited pivot is evaluated
///     router-side from the manifest's pivot strings;
///   * pivot-row (`ShardedLaesa::SweepWithRow`): kBeginRow / kStepRow
///     frames, incumbents seeded from the row, every visit a worker eval.
///
/// Protocol: AbsorbBegin for every active shard, then repeat { Next();
/// evaluate the candidate (AbsorbEval / AbsorbEvalReply); AbsorbStep for
/// every active shard } until Next() returns kSweepNone; then the delta
/// scans (AbsorbDelta); then Finish. A reply that fails an Absorb* is
/// malformed: the executor must Drop the shard.
class SweepMachine {
 public:
  /// `shape`, `world`, `query` and `row` (d(query, pivot p) for every
  /// pivot, or nullptr for the lazy sweep) are borrowed for the machine's
  /// life. Clamps k to the live set and, for a row sweep, seeds the
  /// incumbents from the row.
  SweepMachine(const SweepShape& shape, const SweepWorld& world,
               std::string_view query, std::size_t k, const double* row);

  /// The clamped k; 0 means there is nothing to sweep (Finish at once).
  std::size_t k() const { return k_; }

  FrameType begin_type() const;
  FrameType step_type() const;
  std::vector<char> BeginPayload() const;
  /// Absorbs shard `s`'s begin reply. False when it is malformed.
  bool AbsorbBegin(std::size_t s, const std::vector<char>& reply);
  /// Absorbs shard `s`'s step reply. False when it is malformed.
  bool AbsorbStep(std::size_t s, const std::vector<char>& reply);

  /// Selects the next candidate: the per-shard minima merged in shard
  /// order with strict '<' (the lowest global index wins ties), among the
  /// surviving pivots while any survive. kSweepNone ends the sweep.
  std::size_t Next();
  /// The candidate's home shard, which answers its eval.
  std::size_t cand_shard() const { return cand_shard_; }
  /// The candidate's pivot ordinal when the router evaluates it itself
  /// (a pivot visited by the lazy sweep), else -1.
  std::int32_t router_pivot() const { return cand_rank_; }
  /// The bound the candidate's evaluation may abandon at.
  double cap() const { return cap_; }
  std::vector<char> EvalPayload() const;
  /// Counts the candidate's evaluation and admits it when it improves on
  /// the k-th incumbent.
  void AbsorbEval(double d);
  /// Decodes a worker's eval reply into AbsorbEval. False when malformed.
  bool AbsorbEvalReply(const std::vector<char>& reply);
  /// The visit pass for every active shard; sent after AbsorbEval.
  std::vector<char> StepPayload() const;

  bool active(std::size_t s) const { return views_[s].active; }
  /// Drops shard `s` from the sweep (its whole group is lost, or its
  /// reply was malformed) and lists it missing. Idempotent.
  void Drop(std::size_t s);
  /// Deadline: the incumbents stand; every active shard still holding
  /// live candidates is listed missing.
  void Expire();

  /// True when shard `s` is active and holds live delta entries.
  bool HasDelta(std::size_t s) const;
  std::vector<char> DeltaPayload() const;
  /// Collects one shard's delta-scan hits. False when malformed (nothing
  /// of the reply is kept).
  bool AbsorbDelta(const std::vector<char>& reply);

  /// Merges the delta hits and fills `res`: neighbours, stats, and the
  /// sorted, deduplicated missing shards with `partial` and
  /// `shards_degraded`. The failover counters are the executor's.
  void Finish(ServeResult* res);

  /// Live candidates (and live pivots) over the active shards.
  std::size_t live() const;
  std::size_t live_pivots() const;

 private:
  /// Per-query view of one shard's sweep state, mirrored from its
  /// primary's replies.
  struct ShardView {
    bool active = true;
    std::size_t live = 0;
    std::size_t live_pivots = 0;
    SweepCompactResult last;
  };

  double Kth() const;

  const SweepShape& shape_;
  const SweepWorld& world_;
  std::string_view query_;
  const double* row_;
  /// Any base tombstone anywhere switches the lazy begin to its masked
  /// form (see AbsorbBegin).
  bool masked_;
  std::size_t k_;
  std::vector<ShardView> views_;
  std::vector<NeighborResult> best_;
  std::vector<NeighborResult> delta_hits_;
  std::vector<std::size_t> missing_;
  QueryStats stats_;

  /// The legacy lazy start (global pivot 0), consumed by the first Next().
  std::size_t start_ = kSweepNone;
  std::size_t cand_ = kSweepNone;
  std::size_t cand_shard_ = 0;
  std::int32_t cand_rank_ = -1;
  double cap_ = 0.0;
  double cand_d_ = 0.0;
};

}  // namespace cned

#endif  // CNED_SERVE_SWEEP_MACHINE_H_
