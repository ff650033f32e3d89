#ifndef CNED_SERVE_REPLICA_H_
#define CNED_SERVE_REPLICA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/aligned_buffer.h"
#include "datasets/prototype_store.h"
#include "distances/distance.h"
#include "search/nn_searcher.h"
#include "search/pivot_sweep.h"
#include "search/sweep_kernel.h"
#include "search/table_quant.h"

namespace cned {

/// The worker-process half of the distributed LAESA sweep: one shard's
/// prototypes, its slice of the pivot table, and that shard's segment of
/// the candidate slabs.
///
/// The table slice is a one-segment `PivotTables` (pivot_sweep.h) over the
/// global rank array, mapped by the same section walk `Laesa::Map` runs
/// after the slice's own header (and, in v2, its {precision, reserved}
/// section). Like every index, it rejects duplicate pivot ids.
///
/// A replica is one segment of the shared sweep core (pivot_sweep.h) given
/// its own state: `BeginRow` runs the core's row seed and `Step` (and the
/// tombstone mask of `BeginLazy`) its visit pass — the very per-segment
/// passes `Laesa` runs over its segments — and the router merges the
/// returned `SweepCompactResult`s the way the core merges its segments.
/// That is what makes a healthy distributed query bit-identical
/// (neighbours, distances AND QueryStats) to the in-process `Laesa`.
///
/// Multiplexing: sweep state lives in per-query slots keyed by the frame
/// layer's query id, so one replica serves any number of interleaved
/// sweeps over a single connection. Each slot is an independent copy of
/// the segment slabs — a sweep's trajectory is a pure function of its own
/// (Begin*, Step*...) sequence, untouched by whatever other queries do in
/// between — which is exactly what keeps interleaved queries bit-identical
/// to running them back to back. Mutable-tier state (delta, tombstones) is
/// shared across slots; the router's writer lock guarantees mutations
/// never interleave with a sweep that has already begun.
///
/// Construction maps each snapshot file once, through a `MappedReader` that
/// verifies its CRC footer before any section is interpreted: a worker
/// serving a silently corrupted shard would poison every merged result, so
/// the serving tier pays the one sequential read up front.
class ShardReplica {
 public:
  /// Maps shard files written by `SaveServingSnapshot`. Throws
  /// std::runtime_error on checksum or validation failure, or when the two
  /// files disagree about the deployment shape.
  ShardReplica(const std::string& store_path, const std::string& index_path,
               const std::string& distance_name);

  std::size_t shard_id() const { return shard_id_; }
  std::size_t base() const { return base_; }
  std::size_t size() const { return store_.size(); }
  std::size_t total_size() const { return n_total_; }
  std::size_t num_pivots() const { return pivot_table_.pivots().size(); }

  /// Storage precision of the mapped table slice (shard_snapshot.h v2
  /// carries quantized tables; v1 is always f64).
  TablePrecision table_precision() const { return pivot_table_.precision(); }

  /// Candidates still live in query `qid`'s slot. Throws std::out_of_range
  /// for an unknown qid.
  std::size_t live(std::uint32_t qid) const;
  /// Live candidates of `qid`'s slot that are pivots. The router sums
  /// these across shards; when a shard dies its contribution drops out of
  /// the sum automatically, keeping the global pivot accounting exact
  /// under degrade.
  std::size_t live_pivots(std::uint32_t qid) const;

  /// Active sweep slots (monitoring; the overflow guard's input).
  std::size_t sweep_count() const { return sweeps_.size(); }

  /// Hard cap on concurrent sweep slots per replica: a Begin* past it
  /// throws (the worker answers kError) instead of letting a router that
  /// leaks query ids grow the worker without bound.
  static constexpr std::size_t kMaxSweeps = 4096;

  /// Starts a lazy sweep in `qid`'s slot (created, or reset if the id is
  /// being reused): length lower bounds over the segment, the shard's base
  /// tombstones (if any) forced to +inf, then one flagged compaction at
  /// bound=+inf (sweep_kernel.h) that drops exactly those. The returned
  /// pass carries the survivor count and this segment's minimal-bound
  /// survivors, so the router can pick a live start across shards.
  SweepCompactResult BeginLazy(std::uint32_t qid, std::string_view query);

  /// Retires `qid`'s slot. Idempotent — the router's end-of-sweep frame is
  /// fire-and-forget, so a duplicate or a never-begun id is a no-op.
  void EndSweep(std::uint32_t qid);

  /// --- Live mutability (mutable tier ops, replicated by the router). ----

  /// Appends one prototype to this shard's delta under its router-assigned
  /// global id. Idempotent: per-shard ids arrive ascending, so a re-sent id
  /// is recognised and ignored. Returns true when newly applied.
  bool Insert(std::uint64_t id, std::string_view s);

  /// Tombstones a global id in this shard's base segment or delta.
  /// Idempotent; returns true when newly applied, false for unknown or
  /// already-dead ids.
  bool Remove(std::uint64_t id);

  /// Bounded exhaustive scan of the live delta in ascending-id order
  /// (`BoundedScan`, search/exhaustive.h): the scattered form of the
  /// mutable tier's delta phase. Each evaluation is
  /// capped by min(cap0, the local k-th hit); `>= cap` abandons, exactly
  /// the sweeps' semantics, so the result is a deterministic pure function
  /// of (delta, query, cap0, k) — safe to retry and to byte-compare across
  /// group members. Hits report global ids in `index`.
  void DeltaScan(std::string_view query, double cap0, std::size_t k,
                 std::vector<NeighborResult>* hits,
                 std::uint64_t* computations, std::uint64_t* abandons) const;

  std::size_t base_dead() const { return base_dead_; }
  std::size_t delta_count() const { return delta_store_.size(); }
  std::size_t delta_dead() const { return delta_dead_; }
  std::size_t total_dead() const { return base_dead_ + delta_dead_; }

  /// Starts a row sweep in `qid`'s slot: length bounds, every pivot row
  /// applied dense, then the seed compaction against `seed_bound`. Returns
  /// the segment's compact result.
  SweepCompactResult BeginRow(std::uint32_t qid, std::string_view query,
                              const double* row, double seed_bound);

  /// d(slot query, prototype at global id) bounded by `cap` — the
  /// scattered form of the sweep's visit evaluation. Pure (idempotent):
  /// safe for the router to retry. Throws std::out_of_range for an id
  /// outside the segment or an unknown qid.
  double Eval(std::uint32_t qid, std::size_t global_id, double cap) const;

  /// One lazy visit pass on `qid`'s slot: if `rank` >= 0 the visited
  /// candidate was pivot `rank`, so its table row tightens the segment's
  /// bounds first; then eliminate-and-compact against `bound`, dropping
  /// `skip` (the visited candidate). Mutates slot state — not idempotent.
  /// Throws std::out_of_range, leaving the slot as it was, for an unknown
  /// qid or a `rank` outside [-1, num_pivots()).
  SweepCompactResult Step(std::uint32_t qid, std::uint32_t skip,
                          std::int32_t rank, double d, double bound);

  /// One row-sweep visit pass: eliminate-and-compact only.
  SweepCompactResult StepRow(std::uint32_t qid, std::uint32_t skip,
                             double bound);

 private:
  std::size_t shard_id_ = 0;
  std::size_t base_ = 0;
  std::size_t n_total_ = 0;
  std::size_t shard_count_ = 0;

  /// This shard as a segment of the sweep core (pivot_sweep.h), viewing
  /// the mapped table slice at any precision (table_quant.h). The row meta
  /// is the GLOBAL per-row meta the build computed, so a worker's bounds
  /// match the in-process sharded index bit for bit.
  SweepSegment segment() const {
    return {base_, &store_, pivot_table_.view(0)};
  }

  PrototypeStore store_;  // mapped shard store
  StringDistancePtr distance_;
  /// The global pivot ids and rank array over [0, total_size()), and this
  /// shard's one-segment table slice, mapped in place.
  PivotTables pivot_table_;

  /// One in-flight sweep: this query's private copy of the segment slabs.
  struct SweepSlot {
    std::string query;
    AlignedBuffer<std::uint32_t> idx;
    AlignedBuffer<double> lower;
    std::size_t live = 0;
    std::size_t live_pivots = 0;
  };
  SweepSlot& NewSlot(std::uint32_t qid);
  SweepSlot& SlotOf(std::uint32_t qid);
  const SweepSlot& SlotOf(std::uint32_t qid) const;

  std::unordered_map<std::uint32_t, std::unique_ptr<SweepSlot>> sweeps_;

  // Mutable-tier state, process-local (rebuilt by the router's op-journal
  // replay when a replica respawns). Tombstone bitmaps are allocated on
  // first use; empty means no deletes.
  std::vector<std::uint64_t> tombs_;  // over base slots
  std::size_t base_dead_ = 0;
  PrototypeStore delta_store_;               // owned, appendable
  std::vector<std::uint64_t> delta_ids_;     // global id per delta slot
  std::vector<std::uint64_t> delta_tombs_;   // over delta slots
  std::size_t delta_dead_ = 0;
};

}  // namespace cned

#endif  // CNED_SERVE_REPLICA_H_
