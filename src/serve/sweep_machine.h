#ifndef CNED_SERVE_SWEEP_MACHINE_H_
#define CNED_SERVE_SWEEP_MACHINE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "distances/distance.h"
#include "search/mutable_segment.h"
#include "search/nn_searcher.h"
#include "search/pivot_sweep.h"
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
  /// failed mid-sweep, or still holding candidates at the deadline.
  std::vector<std::size_t> missing_shards;
  /// Primary promotions performed during this query (a standby that took
  /// the same begin took over mid-sweep; the result stayed exact and
  /// unflagged).
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
  std::vector<std::size_t> bases;  // size S+1
  PivotIds pivots;                 // global pivot ids, O(pivots) memory
  /// The pivot strings in ordinal order: the router evaluates pivots
  /// itself.
  std::vector<std::string> pivot_strings;
  /// The np x np pivot block (`PivotBlock`, search/pivot_sweep.h) that a
  /// lazy read's pivot phase runs over.
  PivotBlock block;

  std::size_t n() const { return bases.back(); }
  std::size_t shard_count() const { return bases.size() - 1; }
  std::size_t shard_size(std::size_t s) const {
    return bases[s + 1] - bases[s];
  }
  /// The shard owning base id `id` (< n()).
  std::size_t ShardOf(std::size_t id) const;
};

/// The router-side mirror of the workers' delta/tombstone state. It drives
/// the lazy pivot phase's tombstones, the k clamp, pivot seeding, the
/// delta phase, Remove's dedup and respawn replay. Deletes are two
/// `Tombstones` (search/mutable_segment.h): one over base ids, one over
/// delta ids as id - n, grown by every insert. The router guards the world
/// with its world lock, held shared for the whole life of every sweep that
/// reads it.
struct SweepWorld {
  Tombstones base;                        // over base ids
  Tombstones delta;                       // over delta ids, id - n
  std::vector<std::size_t> shard_dead;    // base tombstones per shard
  std::vector<std::size_t> delta_live;    // live delta per shard

  /// Live prototypes over `n` base ids: base + inserts - removals.
  std::size_t LiveTotal(std::size_t n) const;
};

/// One query's distributed LAESA sweep as a state machine: every decision
/// of the in-process `Laesa` sweep (paper Figs. 3-4: select the
/// minimal-bound candidate, evaluate it, tighten, eliminate), with the
/// per-shard passes left to the workers. The visit rule (incumbents,
/// caps, row seeding) is the in-process sweep's own `SweepIncumbents`,
/// the lazy pivot phase its `VisitPivots`, and the shard merge its
/// `FoldSegmentMinima` (search/pivot_sweep.h). Each shard orders its
/// survivors once, at the begin, in the in-process survivor stream; the
/// machine keeps one head per shard — the begin's, then the successor
/// each eval reply names — and visits the least head while it is below
/// the k-th incumbent, which is the in-process stream's (bound, id) order
/// and stop. It does no I/O and takes no locks: an executor sends the
/// payloads it builds, feeds back the replies, and reports lost shards. One executor drives it — the router's
/// multiplexed `DriveSweeps` legs, behind every read entry point — so a
/// healthy distributed query makes the in-process sweep's decisions on
/// identical values in identical order, and is bit-identical (neighbours,
/// distances and QueryStats) to the in-process index.
///
/// Both reads are row reads; they differ only in the rows:
///   * lazy (`row == nullptr`, the distributed `Laesa::KNearest`): the
///     constructor runs the pivot phase router-side, over the manifest's
///     pivot block, evaluating each visited pivot from its string. It
///     starts at global pivot 0 while no base prototype is removed, as in
///     process, else at the minimal-bound live pivot. The begin carries
///     the visited rows;
///   * pivot-row (`Laesa::KNearestWithPivotRow`): the incumbents are
///     seeded from the row, and the begin carries every row.
///
/// Protocol: AbsorbBegin for every active shard, then repeat { Next();
/// evaluate the candidate on its shard (AbsorbEvalReply) } until Next()
/// returns kSweepNone; then the delta scans (AbsorbDelta); then Finish.
/// A reply that fails an Absorb* is malformed: the executor must refuse
/// its sender and Drop the shard when no member's reply is accepted.
class SweepMachine {
 public:
  /// `shape`, `world`, `distance`, `query` and `row` (d(query, pivot p)
  /// for every pivot, or nullptr for the lazy sweep) are borrowed for the
  /// machine's life. Clamps k to the live set, then seeds the incumbents
  /// from the row or runs the lazy pivot phase.
  SweepMachine(const SweepShape& shape, const SweepWorld& world,
               const StringDistance& distance, std::string_view query,
               std::size_t k, const double* row);

  /// The clamped k; 0 means there is nothing to sweep (Finish at once).
  std::size_t k() const { return k_; }

  /// The kBeginRow payload: the query, the seed bound and the rows taken.
  std::vector<char> BeginPayload() const;
  /// Absorbs shard `s`'s begin reply, its stream head. False when it is
  /// malformed, or when the shard's base tombstone count is not the
  /// router's: the worker masked other slots than the router removed.
  bool AbsorbBegin(std::size_t s, const std::vector<char>& reply);

  /// Selects the next candidate: the shards' heads merged in shard order
  /// with strict '<' (the lowest global index wins ties), while its bound
  /// is below the k-th incumbent. kSweepNone ends the sweep.
  std::size_t Next();
  /// The candidate's home shard, which answers its eval.
  std::size_t cand_shard() const { return cand_shard_; }
  /// The bound the candidate's evaluation may abandon at.
  double cap() const { return cap_; }
  std::vector<char> EvalPayload() const;
  /// Absorbs a worker's eval reply: counts the candidate's evaluation,
  /// admits it when it improves on the k-th incumbent, and moves the
  /// shard's head to the candidate's successor. False when malformed
  /// (nothing is absorbed): the distance must be >= 0 or +inf, never NaN,
  /// and the successor none, or an id of the shard after the candidate in
  /// (bound, id) order.
  bool AbsorbEvalReply(const std::vector<char>& reply);

  bool active(std::size_t s) const { return views_[s].active; }
  /// Drops shard `s` from the sweep (its whole group is lost, or its
  /// reply was malformed) and lists it missing. Idempotent.
  void Drop(std::size_t s);
  /// Deadline: the incumbents stand; every active shard whose head is
  /// still below the k-th incumbent is listed missing.
  void Expire();

  /// True when shard `s` is active and holds live delta entries.
  bool HasDelta(std::size_t s) const;
  std::vector<char> DeltaPayload() const;
  /// Collects shard `s`'s delta-scan hits. False when malformed (nothing
  /// of the reply is kept): every hit must be a delta id shard `s` owns,
  /// id >= n and (id - n) % S == s, at a distance below the scan's cap.
  bool AbsorbDelta(std::size_t s, const std::vector<char>& reply);

  /// Merges the delta hits and fills `res`: neighbours, stats, and the
  /// sorted, deduplicated missing shards with `partial` and
  /// `shards_degraded`. The failover counters are the executor's.
  void Finish(ServeResult* res);

 private:
  /// Per-query view of one shard: whether it is still swept, and its
  /// stream's next unvisited survivor.
  struct ShardView {
    bool active = true;
    SweepCompactResult head;
  };

  /// Decodes the rest of `r`, a stream head of shard `s`. False when it
  /// is malformed: its id is neither none nor one of `s`'s, its bound is
  /// NaN or negative, or its survivor count exceeds the shard.
  bool DecodeHead(std::size_t s, PayloadReader& r,
                  SweepCompactResult* head) const;

  const SweepShape& shape_;
  const SweepWorld& world_;
  std::string_view query_;
  std::size_t k_;
  SweepIncumbents inc_;
  /// The rows the begin carries: every pivot's, or the visited ones.
  std::vector<PivotRow> rows_;
  std::vector<ShardView> views_;
  std::vector<NeighborResult> delta_hits_;
  std::vector<std::size_t> missing_;

  std::size_t cand_ = kSweepNone;
  double cand_key_ = 0.0;
  std::size_t cand_shard_ = 0;
  double cap_ = 0.0;
};

}  // namespace cned

#endif  // CNED_SERVE_SWEEP_MACHINE_H_
