#ifndef CNED_SERVE_ROUTER_H_
#define CNED_SERVE_ROUTER_H_

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "distances/distance.h"
#include "search/nn_searcher.h"
#include "search/sweep_kernel.h"
#include "serve/reactor.h"
#include "serve/sweep_machine.h"

namespace cned {

/// Tuning and robustness knobs of the scatter/gather router. Validated at
/// router construction: an out-of-range field throws std::invalid_argument
/// naming the offending field.
struct ServeOptions {
  /// Distance registry name (distances/registry.h). Required; must match
  /// the distance the snapshot was built with.
  std::string distance;

  /// Replica-group size: every shard is served by `replicas` worker
  /// processes over the same snapshot files. The router scatters each
  /// read's begin to all live members, so every member holds the same
  /// survivor stream and a dead primary is replaced mid-query with no
  /// loss. 1 = the unreplicated scatter/gather tier; must be >= 1.
  int replicas = 2;

  /// Per-operation reply timeout. No op after the begin writes worker
  /// state, so every sweep op (begin / eval / delta scan) and every ping
  /// is retried on a timeout, up to `op_retries` times, before its member
  /// is marked dead. The *shard* degrades only when its whole replica
  /// group is lost.
  int op_timeout_ms = 2000;
  /// Whole-query deadline. When it expires mid-sweep the router returns
  /// the incumbents it has, flagged partial, with every shard that still
  /// held live candidates listed as missing.
  int query_deadline_ms = 10000;
  /// Extra attempts (beyond the first) for idempotent ops.
  int op_retries = 2;
  /// Exponential backoff between retries: `backoff_base_ms << attempt`.
  /// A sweep waits it out on a timer that the query deadline preempts, so
  /// retries can never hold a query past its budget.
  int backoff_base_ms = 5;
  /// Hedging for idempotent Eval (and delta-scan) ops: when the primary
  /// has not replied after this long (and a live standby exists), the
  /// router races the same request to a standby and takes whichever reply
  /// lands first — either answer is exact, so this only cuts the
  /// slow-shard tail. The losing member skips the read if it is still
  /// queued behind a later request of the query (serve/worker.cc).
  /// Negative disables hedging; a fault schedule on evals or delta scans
  /// reproduces run to run only then, or with a `replica=` selector
  /// (serve/fault.h).
  int hedge_delay_ms = 25;
  /// Respawn dead workers (kill, waitpid, fork, re-Map, ping) before each
  /// query, so one crash degrades one query, not the rest of the session.
  /// A replica respawned between queries rejoins its group at the next
  /// query's begin; a replica respawned while *other* queries are in
  /// flight never joins those sweeps — each query pinned its participants
  /// (and their connections) at its own begin.
  bool auto_respawn = true;
  /// > 0 runs a background health loop at this period: ping-based failure
  /// detection plus respawn/re-map of dead replicas. The loop is
  /// drift-free (each tick is scheduled from the previous deadline, not
  /// from when the work finished) and runs *concurrently* with queries —
  /// pings multiplex over the shared connections, and a replica it
  /// revives only joins queries that begin afterwards. One tick respawns
  /// at most four dead replicas, bounding the fork/re-map/replay work it
  /// can inject into a loaded server; the rest waits for the next tick or
  /// for a query-path respawn, which is never capped. 0 disables the
  /// thread — the synchronous `auto_respawn` path alone keeps groups at
  /// full strength.
  int health_interval_ms = 0;

  /// CNED_FAULT-grammar fault schedule for the initial workers
  /// (serve/fault.h); empty = fault-free. Respawned workers always run
  /// fault-free, so an nth-based crash directive does not re-fire on
  /// every respawn.
  std::string fault_spec;
  /// Path to the `cned_shard_worker` binary. Empty (the default) forks
  /// workers in-process — no exec, the test/bench path; non-empty
  /// fork+execs the binary per shard replica.
  std::string worker_binary;
};

/// Fault-tolerant scatter/gather serving tier over a per-shard snapshot
/// directory (serve/shard_snapshot.h).
///
/// Topology: this router process + a replica group of R worker processes
/// per shard (ServeOptions::replicas), each connected by a socketpair
/// speaking the checksummed framing of serve/frame.h. All members of a
/// group map the *same* shard snapshot files; the router loads only the
/// manifest (shard shapes, pivot ids, pivot strings and the np x np pivot
/// block), so no process ever materialises the whole index.
///
/// A query runs the exact `Laesa` sweep with the per-shard passes
/// scattered: the router makes every global decision (incumbents,
/// elimination bound, next candidate — merged over the shards' survivor
/// stream heads in shard order with strict '<', the lowest-global-index
/// tie rule), workers apply the rows and order their segments' survivors
/// once, at the begin, and each eval reply carries the evaluated
/// candidate's successor, so one exchange makes one visit. Those
/// decisions live in one I/O-free `SweepMachine`
/// (serve/sweep_machine.h) per query, driven by one executor: the
/// multiplexed leg machine of `DriveSweeps`, which `KNearest` and
/// `KNearestWithRow` also run, over a one-job feed on the caller's thread.
/// Every read — healthy, degraded or mutated — runs the exchange sequence
/// the machine builds, with retries, failover, hedging and partial
/// flagging per leg. A healthy router is therefore bit-identical —
/// neighbours, distances AND QueryStats — to the in-process index,
/// regardless of worker or replica count or entry point.
///
/// Concurrency model (the concurrent pipelined router): N caller threads
/// (or one engine driver) run simultaneous scatter/gather sweeps over the
/// *shared* worker connections. Every query multiplexes through three
/// mechanisms:
///   * a router-assigned nonzero query id stamped on every frame; workers
///     keep per-query sweep slots keyed on it (serve/replica.h), so
///     interleaved sweeps cannot see each other's slab state;
///   * a per-connection reactor (serve/reactor.h) that matches replies to
///     callers by sequence number and coalesces concurrent sends, so N
///     in-flight queries cost far fewer syscalls than N serialized ones;
///     whichever driver drains a connection writes the wake pipe of every
///     other driver whose reply it delivered;
///   * a query context captured at begin: the set of (connection, alive)
///     participants this query may ever talk to. Failover and hedging act
///     only inside the context; a replica respawned mid-flight (new
///     connection) never joins an in-flight sweep — it never took the
///     begin.
/// Lock hierarchy (outer to inner): `world_mu_` (shared for queries,
/// exclusive for mutations — sweeps never interleave with Insert/Remove,
/// which keeps bit-identity and the per-shard journal order), then
/// `respawn_mu_` (spawn/reap/replay; the health loop takes only this, so
/// it pings and revives without blocking queries), then each group's
/// `mu` (membership snapshots, short).
///
/// Replication model: a read writes a member's sweep state once, with its
/// begin, and every later reply (eval, delta scan) is a pure function of
/// the begin and the request. So the router scatters the begin to ALL
/// live members of each group, and `Reconcile` settles the replies: the
/// first reply the sweep machine accepts (primary first) drives the merge,
/// and every other member must agree with it byte for byte or be evicted
/// as corrupt. Evals and delta scans go to the primary only and are hedged
/// to a standby after `hedge_delay_ms`. When the primary crashes, times
/// out, or returns a malformed or refused reply mid-sweep, the router
/// resends the read to a standby that took the same begin and promotes it
/// — the query completes exact and unflagged.
///
/// The control plane (pings, respawn replay, Insert/Remove replication)
/// is a query context too, with query id 0: the members of one group as
/// they stand at call time, no deadline (each wait is `op_timeout_ms`),
/// and no `ServeResult` to count into. It runs one blocking request/retry
/// loop (`SendRecv`) and one blocking replicated exchange (`Replicate`:
/// scatter, gather, then the sweeps' own `Reconcile`).
///
/// Failure semantics (the robustness contract the tests pin down):
///   * per-leg timeouts, capped by the query deadline; every leg retries
///     after an exponential backoff timer;
///   * a crashed, malformed-reply or out-of-retries replica is marked
///     dead; if it was the primary a standby is promoted and the query
///     continues exact;
///   * `partial` / `missing_shards` fire only when a whole replica group
///     is lost; the per-query deadline degrades to partial results
///     instead of blocking (`SweepMachine::Expire`);
///   * dead replicas are respawned (fresh fork + checksum-verified
///     re-map) and rejoin at a later query's begin — synchronously before
///     a query when `auto_respawn` is set, and/or from the background
///     health loop;
///   * `stats.shards_degraded` counts the missing shards, so healthy
///     queries still compare bit-equal to in-process stats (0 == 0).
/// One sweep for the driver to run. `query` and `row` are borrowed — they
/// must stay valid until the job's result is Delivered.
struct SweepJob {
  std::string_view query;
  std::size_t k = 0;
  /// d(query, pivot p) for every pivot, `num_pivots()` entries: a
  /// pivot-row sweep. nullptr is a lazy sweep (the `KNearest` path).
  const double* row = nullptr;
  /// Opaque caller identifier, echoed back through Deliver.
  std::uint64_t tag = 0;
};

/// The pull/deliver seam between `ServeRouter::DriveSweeps` and an
/// admission front end. All methods are invoked from the single driver
/// thread; implementations that share state with other threads (an
/// admission queue) do their own locking.
class SweepFeed {
 public:
  virtual ~SweepFeed() = default;
  /// Pops the next job to admit. False when nothing is queued right now
  /// (the driver parks and asks again later).
  virtual bool Next(SweepJob* out) = 0;
  /// True once no further jobs will ever arrive: the driver finishes the
  /// sweeps it already admitted, delivers them, and returns.
  virtual bool Finished() = 0;
  /// One settled job: exact, or flagged partial when whole replica groups
  /// were lost or its deadline expired. `bailed` is always false — the
  /// driver has no other executor to hand a job to; the parameter stays
  /// for the feeds that override this signature. Called with the router's
  /// world lock held shared — do not call back into the router from here.
  virtual void Deliver(std::uint64_t tag, ServeResult res, bool bailed) = 0;
  /// Optional readable fd the driver adds to its park poll, made readable
  /// by producers when Next() may have new jobs (self-pipe). The driver
  /// drains it when it polls readable. -1 = none; the driver then notices
  /// new work at its next wakeup (a reply, a timer, or a 1 ms idle nap).
  virtual int wake_fd() { return -1; }
};

class ServeRouter {
 public:
  /// Loads the manifest and spawns `options.replicas` workers per shard.
  /// The manifest is read through a `MappedReader` that always verifies its
  /// checksum, and its sections are copied out. Throws
  /// std::invalid_argument on out-of-range options, std::runtime_error on a
  /// corrupt or malformed manifest or if *every* worker fails to come up;
  /// individual dead workers only degrade queries.
  ServeRouter(const std::string& snapshot_dir, const ServeOptions& options);
  ~ServeRouter();
  ServeRouter(const ServeRouter&) = delete;
  ServeRouter& operator=(const ServeRouter&) = delete;

  std::size_t size() const { return n_; }
  std::size_t shard_count() const { return shape_.shard_count(); }
  std::size_t replica_count() const { return replicas_per_shard_; }
  std::size_t num_pivots() const { return shape_.pivots.size(); }
  const std::vector<std::size_t>& pivots() const {
    return shape_.pivots.ids();
  }
  /// The manifest's pivot strings (immutable), in pivot-ordinal order —
  /// what the admission front end needs to run the pivot stage itself.
  const std::vector<std::string>& pivot_strings() const {
    return shape_.pivot_strings;
  }
  /// The router's distance (immutable after construction).
  const StringDistance& metric() const { return *distance_; }

  /// Lazy (per-query) path — the distributed `Laesa::KNearest`:
  /// `DriveSweeps` over a one-job feed on the caller's thread. The router
  /// runs the pivot phase itself, over the manifest's pivot block, and
  /// begins the shards with the rows it visited; from there the read is
  /// a row read. Thread-safe: concurrent calls multiplex over the shared
  /// connections.
  ServeResult KNearest(std::string_view query, std::size_t k);

  /// --- Live mutability (the distributed mutable tier). -------------------
  ///
  /// The router is the source of truth: every op is journaled per owner
  /// shard before it is replicated to all live members of that shard's
  /// group (like begins), and a respawned replica is replayed
  /// from the journal before it rejoins — so a crash never loses a
  /// mutation the router acknowledged. Ops are idempotent worker-side
  /// (dedup by stable id) with dedup-stable replies, which keeps both the
  /// retry path and the group byte-agreement check sound. Mutations take
  /// the world lock exclusively: they are globally serialized in journal
  /// order and never interleave with an in-flight sweep.

  /// Appends one prototype; returns its stable global id (ids start at
  /// size() and are never reused). The owner shard is id-round-robin.
  std::uint64_t Insert(std::string_view s);

  /// Tombstones a stable id (base or delta). Returns false when the id is
  /// unknown or already removed. A removed prototype is masked out of the
  /// workers' survivor streams — it can never surface as a neighbour.
  bool Remove(std::uint64_t id);

  /// Live prototypes: base + inserts - removals. (size() stays the frozen
  /// base count, mirroring the snapshot.)
  std::size_t live_size() const;
  /// The id the next Insert will assign.
  std::uint64_t next_insert_id() const;

  /// One pivot-row query whose row the caller already computed (`row[p]` =
  /// d(query, pivot p), all pivots): `DriveSweeps` over a one-job feed on
  /// the caller's thread, the same executor and exchange sequence the
  /// admission front end (serve/engine.h) drives. Stats still count the
  /// `num_pivots()` row evaluations, exactly as the in-process batch engine
  /// charges them per query, so results stay bit-identical to the
  /// in-process pivot-row path. Throws std::invalid_argument when
  /// `row.size() != num_pivots()`.
  ServeResult KNearestWithRow(std::string_view query, std::size_t k,
                              const std::vector<double>& row);

  /// The router's one sweep executor. The calling thread drives every
  /// admitted sweep concurrently over the shared connections: each round
  /// it settles the legs that replied, fires due timers, issues the next
  /// phases' requests encoded per connection, flushes each connection
  /// with a single write, and parks in one epoll wait across them and its
  /// own wake pipe until a reply, a wake or its nearest timer (leg
  /// timeout, hedge, retry backoff, deadline). Drivers sharing a
  /// connection watch it EPOLLEXCLUSIVE: an arrival wakes one of them,
  /// which reads it for all and wakes the others' pipes through the
  /// reactor. N in-flight sweeps thus cost one
  /// wakeup and a handful of syscalls per round instead of N parked
  /// threads paying two context switches per exchange — on a single core
  /// this, not parallel compute, is where concurrent throughput comes
  /// from. It pulls jobs from `feed` as sweeps settle (admission refills
  /// mid-flight, so rounds stay full instead of draining to a batch tail),
  /// delivers each result through the feed, and returns once the feed is
  /// Finished and every admitted sweep has settled. `max_concurrent` caps
  /// in-flight sweeps (0 = a default cap). ServeEngine runs this on a
  /// dedicated thread; KNearest and KNearestWithRow run it per call.
  ///
  /// Each sweep is a `SweepMachine` plus the legs of its current phase —
  /// begin, eval, delta scan — one leg per request to one pinned member,
  /// in the order and with the payloads the machine builds:
  ///   * every leg times out after `op_timeout_ms`, capped by the query
  ///     deadline, and is retried after `backoff_base_ms << attempt` on a
  ///     not-before timer, up to `op_retries` times;
  ///   * the begin goes to every live member of each active group and
  ///     settles through `Reconcile` (promotion, eviction, lost groups
  ///     dropped);
  ///   * an eval or delta scan goes to the group's primary (promoting a
  ///     live member when it is dead) and, still pending after
  ///     `hedge_delay_ms`, races a standby leg; the first reply the
  ///     machine accepts wins;
  ///   * at the deadline the pending legs' shards are dropped and the
  ///     machine's incumbents stand (`Expire`).
  /// `MaybeRespawn` runs before each sweep is admitted.
  ///
  /// World-lock fairness: the driver holds the world lock shared while
  /// sweeps are in flight, which (on a reader-preferring rwlock) would
  /// starve Insert/Remove (exclusive) under sustained load; writers
  /// therefore announce themselves (`writers_waiting_`) before blocking,
  /// and the driver checks the counter each round — when one is waiting
  /// it stops admitting, drains, and releases with a real gap so the
  /// writer wins the lock. In read-only steady state the hold is never
  /// cycled.
  void DriveSweeps(SweepFeed& feed, std::size_t max_concurrent = 0);

  /// Heartbeat: pings every replica (retrying per options), marking the
  /// ones that miss as dead. Returns true when all replicas are healthy.
  bool PingAll();

  /// Kills (SIGKILL + waitpid) and respawns every dead replica, re-mapping
  /// its shard. Returns the number of processes brought back to healthy.
  std::size_t RespawnDead();

  /// Group inspection hooks for tests and monitoring.
  std::size_t primary_of(std::size_t s) const;
  pid_t replica_pid(std::size_t s, std::size_t r) const;
  bool replica_alive(std::size_t s, std::size_t r) const;

 private:
  struct Replica {
    pid_t pid = -1;
    std::shared_ptr<Conn> conn;
    bool alive = false;
  };

  /// One shard's replica group. `primary` indexes `members`; promotion
  /// just moves it. Membership is fixed at construction — respawn revives
  /// dead members in place (with a *fresh* connection, so queries that
  /// pinned the old one keep failing cleanly instead of talking to a
  /// process that never took their begin). `mu` guards members and
  /// primary; it is the innermost lock and is never held across an
  /// exchange.
  struct Group {
    mutable std::mutex mu;
    std::vector<Replica> members;
    std::size_t primary = 0;
  };

  /// One group member as pinned by a query at begin: the connection this
  /// query (and only this query's failover/hedging) may use, plus the
  /// query-local alive flag.
  struct Participant {
    std::shared_ptr<Conn> conn;
    bool alive = false;
  };
  struct GroupCtx {
    std::vector<Participant> members;
    std::size_t primary = 0;

    bool AnyAlive() const {
      for (const Participant& m : members) {
        if (m.alive) return true;
      }
      return false;
    }
  };
  /// A query's pinned world: its id and its participant snapshot.
  struct QueryCtx {
    std::uint32_t qid = 0;
    std::vector<GroupCtx> groups;
  };

  /// Spawn/reap run under `respawn_mu_`.
  void SpawnReplica(std::size_t s, std::size_t r,
                    const std::string& fault_spec);
  void ReapReplica(std::size_t s, std::size_t r);

  /// DriveSweeps' leg machine (router.cc).
  class Driver;

  /// Query-context death: fails the pinned connection and clears the ctx
  /// flag; propagates to the global member only if it still holds the
  /// *same* connection (a respawn may already have replaced it — the
  /// fresh process must not be condemned for its predecessor's death).
  void MarkDead(QueryCtx& ctx, std::size_t s, std::size_t r);

  /// Pins `g`'s members into `gc`; a member counts alive only on a
  /// healthy connection. Caller holds `g.mu`.
  static void PinGroup(const Group& g, GroupCtx* gc);
  /// New query id (nonzero) + participant snapshot under each group's mu.
  void SnapshotCtx(QueryCtx* ctx) const;
  /// The control plane's context for group `s` (the other groups stay
  /// empty): query id 0 and the group's members as they stand now, so a
  /// call made right after `SpawnReplica` talks to the new connection. A
  /// member whose connection failed under a still-set alive flag is
  /// marked dead globally, so `RespawnDead` and the health loop revive it.
  /// Caller holds `respawn_mu_`, so membership is stable while it is used.
  QueryCtx ControlCtx(std::size_t s);

  /// If the ctx group's primary is dead, promote the first live ctx
  /// member (in member order — deterministic), mirroring to the global
  /// group when its connection is unchanged. Returns true when a live
  /// primary exists afterwards; counts the promotion in `res` when one
  /// happened.
  bool EnsurePrimary(QueryCtx& ctx, std::size_t s, ServeResult* res);
  /// Promote ctx member `r` to ctx primary and, identity permitting, to
  /// global primary.
  void Promote(QueryCtx& ctx, std::size_t s, std::size_t r);

  /// One blocking control-plane exchange with the pinned replica (s, r),
  /// each wait `op_timeout_ms`, retried `op_retries` times after a backoff
  /// sleep; marks the replica dead on any unrecoverable failure. Replies
  /// with stale sequence numbers (from a timed-out earlier attempt) are
  /// discarded by the reactor.
  bool SendRecv(QueryCtx& ctx, std::size_t s, std::size_t r, FrameType type,
                const std::vector<char>& payload, std::vector<char>* reply);

  /// Settles one group's replies to a replicated op (`replies[r]` empty
  /// for a member that did not answer): the driving reply is the first
  /// one `accept` takes, the primary's first, then in member order. A
  /// member whose reply is refused is marked dead; a driving member that
  /// is not the primary is promoted (one failover); every other member
  /// whose reply disagrees byte for byte with the driving one is evicted
  /// as corrupt. Counts into `res` when non-null. Returns the driving
  /// member, or the group size when no reply was accepted.
  std::size_t Reconcile(
      QueryCtx& ctx, std::size_t s,
      const std::vector<std::optional<std::vector<char>>>& replies,
      const std::function<bool(const std::vector<char>&)>& accept,
      ServeResult* res);

  /// The control plane's replicated exchange: scatters `payload` to every
  /// live member of group `s`, gathers in member order — a member that
  /// times out is retried through `SendRecv` — and reconciles, every
  /// reply accepted.
  void Replicate(std::size_t s, FrameType type,
                 const std::vector<char>& payload);

  /// One journaled mutation, replicated to every live member of the owner
  /// shard's group.
  struct MutationOp {
    bool insert = false;
    std::uint64_t id = 0;
    std::string s;

    FrameType type() const {
      return insert ? FrameType::kInsert : FrameType::kRemove;
    }
    /// u64 id, then the string for an insert (serve/frame.h).
    std::vector<char> Payload() const;
  };

  /// Cheap any-dead scan; only when one exists does the query path take
  /// `respawn_mu_` and run a full (uncapped) respawn.
  void MaybeRespawn();
  bool AnyDead() const;

  bool PingAllLocked();
  /// Respawns up to `limit` dead replicas (0 = all), then re-aims every
  /// group's primary at a live member. Caller holds `respawn_mu_`.
  std::size_t RespawnDeadLocked(std::size_t limit);
  void HealthLoop();

  // Manifest state (immutable after construction — read lock-free).
  std::size_t n_ = 0;
  SweepShape shape_;
  StringDistancePtr distance_;

  std::string dir_;
  ServeOptions options_;
  std::size_t replicas_per_shard_ = 1;
  /// unique_ptr: Group owns a mutex and must not move when the vector is
  /// sized. The vector itself is construction-immutable.
  std::vector<std::unique_ptr<Group>> groups_;

  /// Router-wide query-id source; 0 is reserved for the control plane.
  mutable std::atomic<std::uint32_t> qid_counter_{0};

  // Mutable-tier bookkeeping. Guarded by `world_mu_`.
  std::uint64_t next_insert_id_ = 0;  // initialised to n_
  SweepWorld world_;
  std::vector<std::vector<MutationOp>> shard_ops_;  // per-shard journal

  /// Queries hold this shared (N sweeps in flight at once); mutations
  /// hold it exclusive — a mutation never interleaves with a sweep, which
  /// preserves bit-identity and the per-shard journal/writer order.
  mutable std::shared_mutex world_mu_;
  /// Writers about to block on `world_mu_` announce themselves here
  /// (incremented before the exclusive lock call, decremented once it is
  /// held). glibc's rwlock is reader-preferring, so a continuously-held
  /// shared lock — which is exactly what DriveSweeps wants in steady
  /// state — would starve writers forever; the driver instead checks this
  /// counter each round and backs off (drain, release, yield) only when a
  /// writer is actually waiting.
  std::atomic<std::size_t> writers_waiting_{0};
  /// Serializes spawn/reap/replay (and the fork itself). Journal appends
  /// hold world-exclusive AND this, so holding either is enough to read
  /// the journal. The health loop takes only this — never the world lock.
  mutable std::mutex respawn_mu_;

  std::mutex health_mu_;  // stop flag + cv only
  std::condition_variable health_cv_;
  bool stop_health_ = false;
  std::thread health_thread_;
};

}  // namespace cned

#endif  // CNED_SERVE_ROUTER_H_
