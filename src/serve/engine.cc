#include "serve/engine.h"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <limits>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace cned {
namespace {

using Clock = std::chrono::steady_clock;

ServeResult ShedResult() {
  ServeResult res;
  res.shed = true;
  return res;
}

}  // namespace

/// The driver side of the admission queue. `Next` claims queued entries
/// in admission batches (one blocked pivot pass per claim) and hands them
/// to `DriveSweeps` one at a time; `Deliver` posts the result back to the
/// caller parked in KNearest. The entry pointer itself travels as the
/// job tag — entries are pinned to their caller's stack until done.
class ServeEngine::Feed : public SweepFeed {
 public:
  explicit Feed(ServeEngine& engine) : e_(engine) {}

  bool Next(SweepJob* out) override {
    if (stash_.empty()) {
      std::vector<Pending*> batch;
      {
        std::lock_guard<std::mutex> lock(e_.mu_);
        while (!e_.queue_.empty() && batch.size() < e_.options_.max_batch) {
          Pending* p = e_.queue_.front();
          e_.queue_.pop_front();
          p->claimed = true;
          batch.push_back(p);
        }
      }
      if (batch.empty()) return false;
      // Rows are computed here, off the admission lock, while the claimed
      // entries are exclusively ours — and while any already-admitted
      // sweeps' replies simply buffer in their sockets; the workers keep
      // computing concurrently.
      e_.ComputeRows(batch);
      e_.batches_.fetch_add(1, std::memory_order_relaxed);
      e_.batched_queries_.fetch_add(batch.size(), std::memory_order_relaxed);
      stash_.assign(batch.begin(), batch.end());
    }
    Pending* p = stash_.front();
    stash_.pop_front();
    out->query = p->query;
    out->k = p->k;
    out->row = p->row.data();
    out->tag = reinterpret_cast<std::uintptr_t>(p);
    return true;
  }

  bool Finished() override {
    return e_.stop_.load(std::memory_order_acquire);
  }

  void Deliver(std::uint64_t tag, ServeResult res, bool) override {
    Pending* p = reinterpret_cast<Pending*>(static_cast<std::uintptr_t>(tag));
    std::lock_guard<std::mutex> lock(e_.mu_);
    p->result = std::move(res);
    p->done = true;
    p->cv.notify_one();  // precise: only the caller whose result this is
  }

  int wake_fd() override { return e_.wake_r_; }

 private:
  ServeEngine& e_;
  std::deque<Pending*> stash_;
};

ServeEngine::ServeEngine(ServeRouter& router, const ServeEngineOptions& options)
    : router_(router), options_(options) {
  if (options.max_batch < 1) {
    throw std::invalid_argument("ServeEngineOptions::max_batch must be >= 1");
  }
  if (options.max_inflight < 1) {
    throw std::invalid_argument(
        "ServeEngineOptions::max_inflight must be >= 1");
  }
  if (options.max_queue < 1) {
    throw std::invalid_argument("ServeEngineOptions::max_queue must be >= 1");
  }
  if (options.admission_timeout_ms < 1) {
    throw std::invalid_argument(
        "ServeEngineOptions::admission_timeout_ms must be >= 1");
  }
  int fds[2];
  if (::pipe(fds) != 0) {
    throw std::runtime_error("ServeEngine: pipe() failed");
  }
  wake_r_ = fds[0];
  wake_w_ = fds[1];
  ::fcntl(wake_r_, F_SETFL, O_NONBLOCK);
  ::fcntl(wake_w_, F_SETFL, O_NONBLOCK);
  driver_ = std::thread(&ServeEngine::DriverMain, this);
}

ServeEngine::~ServeEngine() {
  stop_.store(true, std::memory_order_release);
  const char b = 0;
  (void)!::write(wake_w_, &b, 1);
  if (driver_.joinable()) driver_.join();
  ::close(wake_r_);
  ::close(wake_w_);
}

void ServeEngine::DriverMain() {
  Feed feed(*this);
  router_.DriveSweeps(feed, options_.max_inflight);
}

void ServeEngine::ComputeRows(const std::vector<Pending*>& batch) {
  const std::vector<std::string>& pivots = router_.pivot_strings();
  const StringDistance& metric = router_.metric();
  const std::size_t np = pivots.size();

  // Duplicate query strings collapse to one row for the whole claim.
  std::vector<Pending*> uniques;
  std::vector<std::size_t> owner_of(batch.size());
  std::unordered_map<std::string_view, std::size_t> first;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto it = first.emplace(batch[i]->query, uniques.size());
    owner_of[i] = it.first->second;
    if (it.second) uniques.push_back(batch[i]);
  }
  for (Pending* u : uniques) u->row.resize(np);

  // The blocked pass, pivot-major: each pivot string streams once across
  // the whole claim while it is hot in cache — the serving-side mirror of
  // BatchQueryEngine's stage 1. Entries are independent per (query, pivot)
  // pair, so the traversal order cannot perturb a single bit. Each query is
  // prepared once for its whole row.
  std::vector<std::unique_ptr<PreparedDistance>> prepared;
  prepared.reserve(uniques.size());
  for (Pending* u : uniques) prepared.push_back(metric.Prepare(u->query));
  for (std::size_t p = 0; p < np; ++p) {
    for (std::size_t q = 0; q < uniques.size(); ++q) {
      uniques[q]->row[p] = prepared[q]->Bounded(
          pivots[p], std::numeric_limits<double>::infinity());
    }
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Pending* owner = uniques[owner_of[i]];
    if (batch[i] != owner) batch[i]->row = owner->row;
  }
  deduped_rows_.fetch_add(batch.size() - uniques.size(),
                          std::memory_order_relaxed);
}

ServeResult ServeEngine::KNearest(std::string_view query, std::size_t k) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(options_.admission_timeout_ms);

  Pending entry;
  entry.query.assign(query.data(), query.size());
  entry.k = k;

  std::unique_lock<std::mutex> lock(mu_);
  if (queue_.size() >= options_.max_queue) {
    // Overload answer #1: a full admission queue sheds on arrival —
    // refusing fast keeps the queue wait of admitted queries bounded.
    shed_queries_.fetch_add(1, std::memory_order_relaxed);
    return ShedResult();
  }
  queue_.push_back(&entry);
  // Nudge the driver's park. EAGAIN on a full pipe is fine — unread
  // bytes already make the fd readable.
  const char b = 0;
  (void)!::write(wake_w_, &b, 1);

  while (!entry.done) {
    if (entry.cv.wait_until(lock, deadline) == std::cv_status::timeout &&
        !entry.done) {
      if (entry.claimed) {
        // The driver holds the pointer and will deliver the result;
        // shedding now would dangle it. The wait is bounded by the
        // router's own query deadline.
        entry.cv.wait(lock, [&] { return entry.done; });
        break;
      }
      // Overload answer #2: the admission deadline expired while still
      // unclaimed — withdraw and refuse.
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (*it == &entry) {
          queue_.erase(it);
          break;
        }
      }
      shed_queries_.fetch_add(1, std::memory_order_relaxed);
      return ShedResult();
    }
  }
  return std::move(entry.result);
}

}  // namespace cned
