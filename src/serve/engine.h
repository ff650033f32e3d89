#ifndef CNED_SERVE_ENGINE_H_
#define CNED_SERVE_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/router.h"

namespace cned {

/// Admission front-end knobs. Validated at construction: an out-of-range
/// field throws std::invalid_argument naming it.
struct ServeEngineOptions {
  /// Queries claimed per admission pass. The driver pulls up to this many
  /// queued queries at once and computes all their pivot rows in one
  /// blocked, deduplicated pass before their sweeps start. Must be >= 1.
  std::size_t max_batch = 8;
  /// Sweeps the driver keeps in flight at once — passed to
  /// `ServeRouter::DriveSweeps` as its wave cap, bounding the per-worker
  /// sweep-slot pressure. Must be >= 1.
  std::size_t max_inflight = 16;
  /// Admission-queue capacity. A query arriving when this many are
  /// already queued is shed immediately — the overload answer is a fast
  /// refusal, not an unbounded queue. Must be >= 1.
  std::size_t max_queue = 256;
  /// Per-query admission deadline: the longest a query may wait *to be
  /// claimed by the driver*. Once claimed it always completes — the sweep
  /// itself is bounded by the router's own query deadline, not this one.
  /// Must be >= 1. (A healthy engine never comes near it.)
  int admission_timeout_ms = 1000;
};

/// The admission front end of the concurrent serving tier: a thread-safe
/// facade over `ServeRouter` that multiplexes concurrent callers' sweeps
/// through one persistent driver thread and sheds load under overload
/// instead of collapsing.
///
/// Mechanism — a persistent driver with continuous admission:
///   1. every caller enqueues its query, nudges the driver's wake pipe,
///      and parks;
///   2. the driver thread runs `ServeRouter::DriveSweeps` forever, pulling
///      queries through a `SweepFeed`: each claim takes up to `max_batch`
///      queued entries and runs one blocked query x pivot pass for all of
///      them — pivots iterate in the outer loop so each pivot string
///      streams once per claim while hot in cache, and duplicate query
///      strings are computed once — then feeds the sweeps to the driver
///      one at a time, which admits them *into the running wave as
///      earlier sweeps settle*. Rounds stay full from admission to drain:
///      there is no batch boundary to empty them at, and no linger delay
///      to fill them;
///   3. results come back through the feed; each caller wakes once, when
///      its own result lands.
/// Callers thus park exactly once per query, and all sweep traffic costs
/// one thread's worth of context switches — on a single core this, not
/// parallel compute, is where the concurrent speedup comes from.
///
/// Exactness: the driver replays the single-query exchange bit-exactly
/// per sweep and charges the row evaluations to each query's stats
/// exactly as `ServeRouter::KNearestWithRow` does; row entries are
/// independent per (query, pivot) pair — so every non-shed result is
/// bit-identical (neighbours, distances AND stats) to calling
/// `KNearestWithRow` with the same query and its freshly computed row,
/// regardless of how claims formed or rows were deduplicated.
///
/// Degraded worlds: `DriveSweeps` is the router's one executor, so a dead
/// replica, a tombstone or delta entries change nothing here — the driver
/// runs those sweeps itself, with the router's retries, failover, hedging
/// and delta phase, and every caller still parks exactly once.
///
/// Overload: a query is shed — returned immediately with
/// `ServeResult::shed` set and nothing else — when the admission queue is
/// full on arrival, or when its `admission_timeout_ms` deadline expires
/// before the driver claims it. Shedding is the *front end's* contract
/// only; the router beneath never sheds.
class ServeEngine {
 public:
  /// Borrows `router` (caller keeps it alive and outliving the engine)
  /// and starts the driver thread. Throws std::invalid_argument on
  /// out-of-range options.
  ServeEngine(ServeRouter& router, const ServeEngineOptions& options);
  /// Stops and joins the driver. No KNearest call may be outstanding.
  ~ServeEngine();
  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// k nearest neighbours of `query`, closest first — or a shed refusal.
  /// Thread-safe; this is the serving entry point.
  ServeResult KNearest(std::string_view query, std::size_t k);
  ServeResult Nearest(std::string_view query) { return KNearest(query, 1); }

  /// Monitoring counters (cumulative since construction).
  /// Admission claims the driver made (each claims >= 1 queries).
  std::uint64_t batches() const { return batches_.load(); }
  /// Queries claimed by the driver (every non-shed query counts once;
  /// batches_ <= batched_queries_).
  std::uint64_t batched_queries() const { return batched_queries_.load(); }
  /// Row computations saved by duplicate-query dedup within claims.
  std::uint64_t deduped_rows() const { return deduped_rows_.load(); }
  /// Queries refused under overload (queue full or admission deadline).
  std::uint64_t shed_queries() const { return shed_queries_.load(); }

 private:
  /// One queued query: its string, its k, and its result once the driver
  /// delivered it. Lives on the caller's stack — the queue holds
  /// pointers, and an entry leaves the queue either by being claimed by
  /// the driver (`claimed`) or by its caller shedding it on deadline,
  /// never both.
  struct Pending {
    std::string query;
    std::size_t k = 0;
    std::vector<double> row;
    ServeResult result;
    bool claimed = false;  // the driver owns it; the caller must wait
    bool done = false;     // result delivered; caller may act on it
    /// Precise wakeup (mirrors the reactor's per-waiter cvs): the driver
    /// notifies exactly the caller whose result landed — a shared cv
    /// would wake every parked caller per delivery, ~2N context switches
    /// a round on one core.
    std::condition_variable cv;
  };

  /// The driver's pull/deliver seam (defined in engine.cc).
  class Feed;

  /// Body of the driver thread: runs DriveSweeps until stop_.
  void DriverMain();

  /// Runs one blocked, deduplicated pivot pass over `batch` (entries are
  /// claimed, so only the driver touches them).
  void ComputeRows(const std::vector<Pending*>& batch);

  ServeRouter& router_;
  const ServeEngineOptions options_;

  std::mutex mu_;
  std::deque<Pending*> queue_;
  std::atomic<bool> stop_{false};
  int wake_r_ = -1, wake_w_ = -1;  // non-blocking self-pipe: enqueue -> driver

  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_queries_{0};
  std::atomic<std::uint64_t> deduped_rows_{0};
  std::atomic<std::uint64_t> shed_queries_{0};

  std::thread driver_;  // last member: joins before the rest tears down
};

}  // namespace cned

#endif  // CNED_SERVE_ENGINE_H_
