#ifndef CNED_SERVE_REPLICA_H_
#define CNED_SERVE_REPLICA_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/aligned_buffer.h"
#include "datasets/prototype_store.h"
#include "distances/distance.h"
#include "search/mutable_segment.h"
#include "search/nn_searcher.h"
#include "search/pivot_sweep.h"
#include "search/sweep_kernel.h"
#include "search/table_quant.h"

namespace cned {

/// The worker-process half of the distributed LAESA sweep: one shard's
/// prototypes, its slice of the pivot table, and that shard's segment of
/// the candidate slabs with its survivor stream.
///
/// The table slice is a one-segment `PivotTables` (pivot_sweep.h), mapped
/// by the same section walk `Laesa::Map` runs after the slice's own header
/// (and, in v2, its {precision, reserved} section). Like every index, it
/// rejects duplicate pivot ids. Nothing it allocates scales with the
/// header's global N: the slabs span the shard.
///
/// A replica is one segment of the shared sweep core (pivot_sweep.h) given
/// its own state: `BeginRow` runs the core's dense application of the
/// rows the router took — every pivot row for a row read, the visited
/// ones for a lazy read, whose pivot phase the router runs — and orders
/// the segment's non-pivots below the seed bound in the core's survivor
/// stream (`SurvivorStream`, search/sweep_kernel.h). After the begin the
/// bounds never change, so the stream fixes the shard's visit order:
/// `BeginRow` returns its head, and `Eval` of a candidate returns the
/// candidate's successor. The router merges the shards' heads the way the
/// core merges its segments and stops at the first head at or above the
/// k-th incumbent, as the core's stream does. `Laesa` applies the same
/// rows once, densely, and visits the same non-pivots in the same (bound,
/// id) order. That is what makes a healthy distributed query bit-identical
/// (neighbours, distances AND QueryStats) to the in-process `Laesa`.
///
/// Multiplexing: sweep state lives in per-query slots keyed by the frame
/// layer's query id, so one replica serves any number of interleaved
/// sweeps over a single connection. Each slot is an independent copy of
/// the segment slabs, written by its begin alone (an eval only sorts the
/// stream buckets it reaches, which changes no answer): every later reply
/// is a pure function of the begin and the request, untouched by whatever
/// other queries do in between and by which earlier evals this replica
/// answered — which is what keeps interleaved queries bit-identical to
/// running them back to back, and lets any group member that took the
/// begin answer a retried, hedged or failed-over eval with the same bytes.
/// Mutable-tier state is shared across slots: the base segment's
/// `Tombstones` (ids stay implicit, base_ + slot) and the delta, a
/// `MutableSegment` (search/mutable_segment.h) appended and killed in
/// place. The router's writer lock guarantees
/// mutations never interleave with a sweep that has already begun.
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

  /// Active sweep slots (monitoring; the overflow guard's input).
  std::size_t sweep_count() const { return sweeps_.size(); }

  /// Hard cap on concurrent sweep slots per replica: a BeginRow past it
  /// throws (the worker answers kError) instead of letting a router that
  /// leaks query ids grow the worker without bound.
  static constexpr std::size_t kMaxSweeps = 4096;

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

  std::size_t base_dead() const { return removed_.dead(); }
  std::size_t delta_count() const { return delta_.count(); }
  std::size_t delta_dead() const { return delta_.dead(); }
  std::size_t total_dead() const { return base_dead() + delta_dead(); }

  /// Starts a row sweep in `qid`'s slot (created, or reset if the id is
  /// being reused): length bounds, `rows` applied dense, the shard's base
  /// tombstones (if any) and its pivots (already the router's incumbents
  /// or dead) lifted to +inf, then the survivor stream of the bounds
  /// below `seed_bound`. Returns the stream's head: its first survivor
  /// and that survivor's bound (`live` is left 0). A rank selects a row of the
  /// mapped slice, so more than num_pivots() rows, or a rank outside
  /// [0, num_pivots()), throws std::out_of_range and leaves no slot under
  /// `qid`.
  SweepCompactResult BeginRow(std::uint32_t qid, std::string_view query,
                              const std::vector<PivotRow>& rows,
                              double seed_bound);

  /// One visit of the scattered sweep: d(slot query, prototype at global
  /// id) bounded by `cap`, and in `next` the stream's first survivor after
  /// the id in (bound, id) order, with its bound. Both are
  /// pure functions of the begin and the request: safe for the router to
  /// retry, hedge or send to another member. Throws std::out_of_range for
  /// an id outside the segment or an unknown qid.
  double Eval(std::uint32_t qid, std::size_t global_id, double cap,
              SweepCompactResult* next);

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
  /// The global pivot ids and this shard's one-segment table slice, mapped
  /// in place.
  PivotTables pivot_table_;

  /// One in-flight sweep: this query's bounds by local slot and the
  /// survivor stream over them, its ids local slots.
  struct SweepSlot {
    std::string query;
    std::unique_ptr<PreparedDistance> prepared;  // of `query`, from the begin
    AlignedBuffer<double> lower;
    AlignedBuffer<std::uint32_t> idx;
    std::vector<std::uint32_t> hist;
    std::optional<SurvivorStream> stream;
    std::size_t survivors = 0;
    std::uint32_t sorted = 0;  // leading buckets sorted (SurvivorStream::After)
  };
  /// `qid`'s slot, created or reused, sized for the segment.
  SweepSlot& NewSlot(std::uint32_t qid);
  SweepSlot& SlotOf(std::uint32_t qid);
  /// The stream head at position `r` of `slot`'s stream.
  SweepCompactResult HeadAt(const SweepSlot& slot, std::size_t r) const;

  std::unordered_map<std::uint32_t, std::unique_ptr<SweepSlot>> sweeps_;

  // Mutable-tier state, process-local (rebuilt by the router's op-journal
  // replay when a replica respawns).
  Tombstones removed_;    // over base slots: global id base_ + slot
  MutableSegment delta_;  // global ids, ascending
};

}  // namespace cned

#endif  // CNED_SERVE_REPLICA_H_
