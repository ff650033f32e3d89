#ifndef CNED_SERVE_REACTOR_H_
#define CNED_SERVE_REACTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "serve/frame.h"

namespace cned {

/// A multiplexed router-side connection to one worker process: many
/// threads exchange frames over one socket concurrently, matched back to
/// their callers by sequence number (with the query id echoed as a sanity
/// check). This is the reactor seam of the concurrent serving tier —
/// everything above it (per-group failover, replication, hedging) works in
/// terms of Expect/Send/Wait/TryWait/Drain and never reads the fd (a sweep
/// driver only polls it for readiness).
///
/// Receive side — a reactor with a *migrating leader* instead of a
/// dedicated thread: whichever thread is waiting becomes the reader,
/// polls, drains every buffered frame in one recv, completes all matching
/// waiters (not just its own), and hands the reader role to another
/// waiter when it leaves. On a loaded connection N replies cost one
/// syscall and one wakeup, not N of each; with a single in-flight
/// exchange it degenerates to exactly the old blocking RecvFrame. A
/// reply whose sequence (or echoed query id) matches no registered
/// waiter is a stale leftover of a timed-out attempt and is discarded.
///
/// Send side — flat-combining writes: a sender that finds another thread
/// mid-flush appends its encoded frame to the shared outbox and returns;
/// the active flusher keeps flushing until the outbox is empty. Frames
/// from concurrent queries to the same worker thus merge into fewer
/// syscalls, and the frame layer's self-delimiting byte stream makes the
/// concatenation invisible to the worker.
///
/// Failure: any stream error (EOF, reset, malformed frame) or an explicit
/// Fail() poisons the connection — every current and future Wait returns
/// kClosed. Fail() uses shutdown(2), not close(2): the fd stays valid (and
/// uniquely owned) until the last shared_ptr drops, so a query still
/// holding the connection can never race a respawn reusing the fd number.
class Conn {
 public:
  explicit Conn(int fd) : fd_(fd) {}
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd() const { return fd_; }

  /// Fresh sequence number, unique across all threads using this conn.
  std::uint32_t NextSeq() { return ++seq_; }

  /// Registers interest in the reply carrying `seq` — MUST be called
  /// before the request is sent, or a fast reply could be discarded as
  /// stale. Pair with exactly one Wait, TryWait that settles it, or
  /// Cancel. `wake_fd` (a pipe's write end, or -1) is written one byte
  /// whenever another thread completes this waiter — its reply drained by
  /// that thread's read, or the stream found dead — so a caller polling
  /// its own wake pipe instead of blocking in Wait learns of it at once.
  void Expect(std::uint32_t seq, std::uint32_t qid, int wake_fd = -1);

  /// Encodes and sends one frame (coalescing with concurrent senders).
  /// False only when the connection has failed; the caller should Cancel
  /// any matching Expect and mark the replica dead.
  bool Send(FrameType type, std::uint32_t seq, std::uint32_t qid,
            const void* payload, std::size_t payload_bytes);

  /// Sends `n` bytes of already-encoded frames (EncodeFrame output) as one
  /// write — the batching seam of the multiplexed sweep driver, which
  /// encodes a whole round's requests per connection and flushes them with
  /// a single syscall. Same failure contract as Send.
  bool SendRaw(const char* data, std::size_t n);

  /// Blocks until the expected reply for `seq` arrives, the connection
  /// fails (kClosed), or `timeout_ms` elapses (kTimeout; < 0 waits
  /// forever; 0 still drains a reply already buffered in the socket).
  /// kOk and kClosed deregister the waiter; kTimeout leaves it registered
  /// so the caller can Wait again (hedging alternates between two
  /// connections) — every kTimeout must eventually be followed by another
  /// Wait or a Cancel.
  RecvStatus Wait(std::uint32_t seq, int timeout_ms, Frame* out);

  /// Reads whatever the socket holds without blocking — unless another
  /// thread holds the reader role, which then delivers it — completing
  /// every waiter it answers and writing their wake fds (all but
  /// `wake_fd`, the caller's own). A sweep driver calls this for each
  /// connection its poll reports readable, so the driver that wakes reads
  /// for every driver sharing the connection.
  void Drain(int wake_fd);

  /// Completed-check without reading: returns kOk or kClosed and retires
  /// the waiter exactly like Wait, or kTimeout (registration kept) when
  /// the reply has not been drained from the socket yet. Never takes the
  /// reader role, never blocks, never issues a syscall — the sweep
  /// driver's scan uses this to collect replies some reader (its own
  /// Drain, or another thread, which then wrote its wake fd) already
  /// delivered.
  RecvStatus TryWait(std::uint32_t seq, Frame* out);

  /// Drops a registered waiter without waiting (send failed, caller gave
  /// up, or a timed-out Wait will not be retried) — a later reply for
  /// `seq` becomes stale. Idempotent.
  void Cancel(std::uint32_t seq);

  /// Poisons the connection: wakes every waiter with kClosed and
  /// shutdown(2)s the socket so the worker sees EOF. Does NOT close the
  /// fd (see class comment). Idempotent.
  void Fail();

  bool failed() const { return failed_.load(std::memory_order_acquire); }

 private:
  /// Wakeups are precise, not broadcast: each waiter sleeps on its own
  /// condition variable, the reader notifies exactly the waiters whose
  /// frames arrived, and the reader role is handed to exactly one other
  /// in-Wait waiter when the current reader leaves. With N queries parked
  /// on one connection a broadcast per received frame would wake all N
  /// threads to re-check and re-sleep — on a single core that is ~2N
  /// context switches per frame, more than the multiplexing saves.
  struct Waiter {
    std::uint32_t qid = 0;
    int wake_fd = -1;
    bool done = false;
    /// True while the owning thread is blocked inside Wait for this seq.
    /// The reader handoff only considers waiting=true entries: a waiter
    /// registered but currently unattended (a hedge leg, or a broadcast
    /// reply whose gatherer is still on an earlier connection) cannot
    /// take the role, and its frames simply stay buffered until its
    /// thread comes back.
    bool waiting = false;
    RecvStatus status = RecvStatus::kTimeout;
    Frame frame;
    std::condition_variable cv;
  };

  /// Reads once (poll + recv) as the reader leader and completes every
  /// waiter whose frame arrived, writing each one's wake fd unless it is
  /// `self_wake`, the reader's own (already awake). Called with `mu_`
  /// held; unlocks around the syscalls.
  void ReadOnce(std::unique_lock<std::mutex>& lock, int wait_ms,
                int self_wake);
  /// The stream-dead fan-out: wakes every waiter (cv and wake fd) to see
  /// kClosed. Called with `mu_` held, after `failed_` is set.
  void WakeAllLocked();

  const int fd_;
  std::atomic<std::uint32_t> seq_{0};
  std::atomic<bool> failed_{false};

  /// Wakes one eligible (waiting, not done) waiter to take the reader
  /// role. Called with `mu_` held when the role is free.
  void HandOffReader();

  /// Drains `outbox_` to the socket (or joins an active flusher). Called
  /// with `send_mu_` held; unlocks around the write syscalls. Returns
  /// false on a stream failure (after Fail()).
  bool FlushOutboxLocked(std::unique_lock<std::mutex>& lock);

  std::mutex mu_;  // receive state: waiters, inbuf, reader flag
  bool reader_active_ = false;
  FrameBuffer inbuf_;
  std::unordered_map<std::uint32_t, Waiter> waiters_;

  std::mutex send_mu_;  // send state: outbox, flusher flag
  bool sending_ = false;
  std::vector<char> outbox_;
};

}  // namespace cned

#endif  // CNED_SERVE_REACTOR_H_
