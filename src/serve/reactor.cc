#include "serve/reactor.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <utility>

namespace cned {
namespace {

using Clock = std::chrono::steady_clock;

/// One byte down a waiter's wake pipe. The pipe is non-blocking: a full
/// one is already readable, so EAGAIN loses nothing.
void Wake(int fd) {
  if (fd < 0) return;
  const char b = 0;
  (void)!::write(fd, &b, 1);
}

/// Milliseconds until `deadline`, rounded up (the frame layer's fixed
/// semantics: a sub-millisecond remainder polls once, never truncates to
/// a premature 0); clamped at 0 once passed.
int CeilMsLeft(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::microseconds>(
                        deadline - Clock::now())
                        .count();
  if (left <= 0) return 0;
  return static_cast<int>((left + 999) / 1000);
}

}  // namespace

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

void Conn::Expect(std::uint32_t seq, std::uint32_t qid, int wake_fd) {
  std::lock_guard<std::mutex> lock(mu_);
  Waiter& w = waiters_[seq];
  w.qid = qid;
  w.wake_fd = wake_fd;
  w.done = false;
  w.waiting = false;
}

void Conn::Cancel(std::uint32_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  waiters_.erase(seq);
}

void Conn::Fail() {
  std::lock_guard<std::mutex> lock(mu_);
  if (failed_.exchange(true, std::memory_order_acq_rel)) return;
  // shutdown, not close: wakes the current reader's poll and gives the
  // worker EOF, while the fd number stays reserved until the last
  // shared_ptr owner drops the Conn.
  ::shutdown(fd_, SHUT_RDWR);
  WakeAllLocked();
}

void Conn::WakeAllLocked() {
  for (auto& [seq, w] : waiters_) {
    w.cv.notify_one();
    Wake(w.wake_fd);
  }
}

void Conn::HandOffReader() {
  for (auto& [seq, w] : waiters_) {
    if (w.waiting && !w.done) {
      w.cv.notify_one();
      return;
    }
  }
}

bool Conn::FlushOutboxLocked(std::unique_lock<std::mutex>& lock) {
  if (sending_) return true;  // the active flusher will carry these bytes
  sending_ = true;
  bool ok = true;
  std::vector<char> local;
  while (ok && !outbox_.empty()) {
    local.clear();
    local.swap(outbox_);
    lock.unlock();
    ok = SendBytes(fd_, local.data(), local.size());
    lock.lock();
  }
  sending_ = false;
  lock.unlock();
  if (!ok) {
    Fail();
    return false;
  }
  return true;
}

bool Conn::Send(FrameType type, std::uint32_t seq, std::uint32_t qid,
                const void* payload, std::size_t payload_bytes) {
  if (failed()) return false;
  std::unique_lock<std::mutex> lock(send_mu_);
  if (!EncodeFrame(&outbox_, type, seq, qid, payload, payload_bytes)) {
    return false;
  }
  return FlushOutboxLocked(lock);
}

bool Conn::SendRaw(const char* data, std::size_t n) {
  if (failed()) return false;
  std::unique_lock<std::mutex> lock(send_mu_);
  outbox_.insert(outbox_.end(), data, data + n);
  return FlushOutboxLocked(lock);
}

void Conn::ReadOnce(std::unique_lock<std::mutex>& lock, int wait_ms,
                    int self_wake) {
  reader_active_ = true;
  lock.unlock();

  // Optimistic recv first: on a loaded connection the worker's batched
  // reply is usually already buffered, and skipping the poll halves the
  // read-side syscalls. Poll only when the socket is dry and we may wait.
  char chunk[64 * 1024];
  ssize_t r = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
  bool have_bytes = false, stream_dead = false;
  if (r > 0) {
    have_bytes = true;
  } else if (r == 0) {
    stream_dead = true;  // EOF
  } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
    if (wait_ms == 0) {
      // Non-blocking probe and the socket is dry — done. (A zero-length
      // poll here could only catch bytes that landed in the last few
      // instructions; the caller's next probe or park catches them.)
      lock.lock();
      reader_active_ = false;
      return;
    }
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int pr = ::poll(&pfd, 1, wait_ms);
    if (pr > 0) {
      r = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (r > 0) {
        have_bytes = true;
      } else if (r == 0) {
        stream_dead = true;
      } else if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
        stream_dead = true;
      }
    } else if (pr < 0 && errno != EINTR) {
      stream_dead = true;
    }
  } else if (errno != EINTR) {
    stream_dead = true;
  }

  lock.lock();
  reader_active_ = false;
  if (have_bytes) {
    inbuf_.Append(chunk, static_cast<std::size_t>(r));
    Frame f;
    int last_woken = -1;
    for (;;) {
      const FrameBuffer::Next next = inbuf_.Pop(&f);
      if (next == FrameBuffer::Next::kNeedMore) break;
      if (next == FrameBuffer::Next::kMalformed) {
        stream_dead = true;  // no resync, as everywhere in the tier
        break;
      }
      const auto it = waiters_.find(f.seq);
      // No waiter, or an echoed query id that doesn't match the one
      // registered: a stale reply from a timed-out attempt — drop it.
      if (it == waiters_.end() || it->second.done || it->second.qid != f.qid) {
        continue;
      }
      it->second.status = RecvStatus::kOk;
      it->second.frame = std::move(f);
      it->second.done = true;
      // Precise wakeup: only the thread whose reply this is. The reader
      // (us) re-checks its own waiter on loop re-entry without a signal,
      // and a run of frames for one other driver wakes it once.
      it->second.cv.notify_one();
      const int fd = it->second.wake_fd;
      if (fd != self_wake && fd != last_woken) {
        Wake(fd);
        last_woken = fd;
      }
    }
  }
  if (stream_dead && !failed_.exchange(true, std::memory_order_acq_rel)) {
    ::shutdown(fd_, SHUT_RDWR);
    WakeAllLocked();
  }
}

void Conn::Drain(int wake_fd) {
  std::unique_lock<std::mutex> lock(mu_);
  if (reader_active_ || failed()) return;
  ReadOnce(lock, 0, wake_fd);
  HandOffReader();  // a blocked Wait may have been queued for the role
}

RecvStatus Conn::TryWait(std::uint32_t seq, Frame* out) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = waiters_.find(seq);
  if (it == waiters_.end()) return RecvStatus::kClosed;
  if (it->second.done) {
    const RecvStatus st = it->second.status;
    if (st == RecvStatus::kOk && out != nullptr) {
      *out = std::move(it->second.frame);
    }
    waiters_.erase(it);
    return st;
  }
  if (failed_.load(std::memory_order_acquire)) {
    waiters_.erase(it);
    return RecvStatus::kClosed;
  }
  return RecvStatus::kTimeout;
}

RecvStatus Conn::Wait(std::uint32_t seq, int timeout_ms, Frame* out) {
  const bool bounded = timeout_ms >= 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(bounded ? timeout_ms : 0);

  std::unique_lock<std::mutex> lock(mu_);
  RecvStatus st = RecvStatus::kTimeout;
  bool tried_read = false;
  for (;;) {
    const auto it = waiters_.find(seq);
    if (it == waiters_.end()) {
      st = RecvStatus::kClosed;  // Cancelled under us — treat as failed
      break;
    }
    if (it->second.done) {
      st = it->second.status;
      if (st == RecvStatus::kOk && out != nullptr) {
        *out = std::move(it->second.frame);
      }
      break;
    }
    if (failed_.load(std::memory_order_acquire)) {
      st = RecvStatus::kClosed;
      break;
    }
    int wait_ms = -1;
    if (bounded) {
      wait_ms = CeilMsLeft(deadline);
      // Expired — but take the read role once with a zero-length poll
      // first, so a reply already buffered in the socket still lands
      // (mirrors RecvFrame's timeout-0 drain semantics).
      if (wait_ms == 0 && (tried_read || reader_active_)) {
        st = RecvStatus::kTimeout;
        break;
      }
    }
    if (!reader_active_) {
      tried_read = true;
      ReadOnce(lock, wait_ms, it->second.wake_fd);
    } else {
      it->second.waiting = true;
      if (bounded) {
        it->second.cv.wait_until(lock, deadline);
      } else {
        it->second.cv.wait(lock);
      }
      it->second.waiting = false;
    }
  }
  // The registration survives a timeout: the caller either Waits again
  // (hedging alternates between two connections) or Cancels, at which
  // point a late reply becomes stale. kOk and kClosed retire it here.
  if (st != RecvStatus::kTimeout) waiters_.erase(seq);
  // If we were (or could have been) the reader, the role is now free:
  // wake exactly one parked waiter to take it, or buffered frames would
  // sit until someone's deadline fired.
  if (!reader_active_) HandOffReader();
  return st;
}

}  // namespace cned
