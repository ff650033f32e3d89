#include "serve/router.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <list>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/binary_io.h"
#include "distances/registry.h"
#include "search/pivot_sweep.h"
#include "serve/frame.h"
#include "serve/shard_snapshot.h"
#include "serve/worker.h"

namespace cned {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void ValidateServeOptions(const ServeOptions& o) {
  auto fail = [](const char* field, long long got, const char* want) {
    throw std::invalid_argument(std::string("ServeOptions.") + field + " " +
                                want + " (got " + std::to_string(got) + ")");
  };
  if (o.distance.empty()) {
    throw std::invalid_argument(
        "ServeOptions.distance must name a registered distance");
  }
  if (o.replicas < 1) fail("replicas", o.replicas, "must be >= 1");
  if (o.op_timeout_ms <= 0) fail("op_timeout_ms", o.op_timeout_ms, "must be > 0");
  if (o.query_deadline_ms <= 0) {
    fail("query_deadline_ms", o.query_deadline_ms, "must be > 0");
  }
  if (o.op_retries < 0) fail("op_retries", o.op_retries, "must be >= 0");
  if (o.backoff_base_ms < 0) {
    fail("backoff_base_ms", o.backoff_base_ms, "must be >= 0");
  }
  if (o.health_interval_ms < 0) {
    fail("health_interval_ms", o.health_interval_ms, "must be >= 0");
  }
}

/// Exponential backoff before retry `attempt` (1-based).
std::int64_t BackoffMs(int backoff_base_ms, int attempt) {
  const int shift = attempt - 1 < 20 ? attempt - 1 : 20;
  return static_cast<std::int64_t>(backoff_base_ms) << shift;
}

constexpr std::uint32_t kReplyType =
    static_cast<std::uint32_t>(FrameType::kReply);

/// How many dead replicas one health tick respawns at most, bounding the
/// fork/re-map/replay work a tick can inject into a loaded server; the
/// rest waits for the next tick (or for a query-path respawn, which is
/// never capped — a caller already paying for a query wants full
/// strength).
constexpr std::size_t kMaxRespawnsPerTick = 4;

}  // namespace

ServeRouter::ServeRouter(const std::string& snapshot_dir,
                         const ServeOptions& options)
    : distance_((ValidateServeOptions(options), MakeDistance(options.distance))),
      dir_(snapshot_dir),
      options_(options),
      replicas_per_shard_(static_cast<std::size_t>(options.replicas)) {
  // The manifest is small (pivot ids, strings and the pivot block): it is
  // read through a verifying mapping (the same always-on checksum the
  // workers run on their shard files) and copied out before the mapping is
  // dropped.
  MappedReader reader(MappedFile::Open(ManifestPath(dir_)),
                      /*verify_checksum=*/true);
  const auto counts =
      reader.Header(kRouterManifestMagic, kRouterManifestVersion);
  n_ = counts[0];
  const std::uint64_t shards = counts[1];
  const std::uint64_t np = counts[2];
  const std::uint64_t arena_bytes = counts[3];
  if (shards == 0 || np == 0 || np > n_) {
    throw std::runtime_error("ServeRouter: malformed manifest counts");
  }
  const TablePrecision precision =
      counts[4] == 0 ? TablePrecision::kF64
                     : TablePrecisionFromCode(counts[4], "ServeRouter");
  const std::uint64_t* shard_sizes = reader.Array<std::uint64_t>(shards);
  // Each size must fit in what is left of n: a running sum that wraps would
  // pass the total check with bases that do not ascend, and ShardOf needs
  // them sorted.
  std::vector<std::size_t>& bases = shape_.bases;
  bases.resize(shards + 1);
  bases[0] = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    if (shard_sizes[s] > n_ - bases[s]) {
      throw std::runtime_error("ServeRouter: shard sizes exceed n");
    }
    bases[s + 1] = bases[s] + shard_sizes[s];
  }
  if (bases[shards] != n_) {
    throw std::runtime_error("ServeRouter: shard sizes do not sum to n");
  }
  const std::uint64_t* pivots = reader.Array<std::uint64_t>(np);
  shape_.pivots = PivotIds(std::vector<std::size_t>(pivots, pivots + np), n_,
                           "ServeRouter");
  const std::uint64_t* lens = reader.Array<std::uint64_t>(np);
  // Each length must fit in what is left of the arena, so the running sum
  // cannot wrap past the total check.
  std::uint64_t lens_total = 0;
  for (std::uint64_t p = 0; p < np; ++p) {
    if (lens[p] > arena_bytes - lens_total) {
      throw std::runtime_error("ServeRouter: pivot lengths exceed the arena");
    }
    lens_total += lens[p];
  }
  if (lens_total != arena_bytes) {
    throw std::runtime_error("ServeRouter: manifest pivot arena mismatch");
  }
  const char* arena = reader.Array<char>(arena_bytes);
  shape_.block = PivotBlock::Read(reader, np, precision);
  shape_.pivot_strings.resize(np);
  for (std::size_t p = 0; p < np; ++p) {
    shape_.pivot_strings[p].assign(arena, lens[p]);
    arena += lens[p];
  }

  next_insert_id_ = n_;
  world_.base = Tombstones(n_);
  world_.shard_dead.assign(shards, 0);
  world_.delta_live.assign(shards, 0);
  shard_ops_.resize(shards);

  groups_.resize(shards);
  {
    std::lock_guard<std::mutex> rlock(respawn_mu_);
    for (std::size_t s = 0; s < shards; ++s) {
      groups_[s] = std::make_unique<Group>();
      groups_[s]->members.resize(replicas_per_shard_);
      for (std::size_t r = 0; r < replicas_per_shard_; ++r) {
        SpawnReplica(s, r, options_.fault_spec);
      }
    }
    if (!PingAllLocked()) {
      bool any = false;
      for (const auto& gp : groups_) {
        for (const Replica& m : gp->members) any = any || m.alive;
      }
      if (!any) {
        throw std::runtime_error("ServeRouter: no worker came up");
      }
    }
  }
  if (options_.health_interval_ms > 0) {
    health_thread_ = std::thread(&ServeRouter::HealthLoop, this);
  }
}

ServeRouter::~ServeRouter() {
  if (health_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(health_mu_);
      stop_health_ = true;
    }
    health_cv_.notify_all();
    health_thread_.join();
  }
  for (auto& gp : groups_) {
    for (Replica& m : gp->members) {
      if (m.conn != nullptr && !m.conn->failed()) {
        // Best-effort clean shutdown; the SIGKILL below is the guarantee.
        m.conn->Send(FrameType::kShutdown, m.conn->NextSeq(), 0, nullptr, 0);
      }
      m.conn.reset();
      if (m.pid > 0) {
        kill(m.pid, SIGKILL);
        int status = 0;
        waitpid(m.pid, &status, 0);
      }
    }
  }
}

// Drift-free ticking: each deadline is the previous deadline plus the
// interval, not "now + interval" after the work finished, so slow ticks
// do not stretch the period; ticks missed entirely are skipped (never
// bunched). The loop takes only respawn_mu_ — pings multiplex over the
// shared connections at query id 0 while queries are mid-sweep, and a
// replica revived here joins at a later query's begin.
void ServeRouter::HealthLoop() {
  const auto interval = std::chrono::milliseconds(options_.health_interval_ms);
  auto next = Clock::now() + interval;
  std::unique_lock<std::mutex> lock(health_mu_);
  for (;;) {
    if (health_cv_.wait_until(lock, next, [this] { return stop_health_; })) {
      return;
    }
    lock.unlock();
    {
      std::lock_guard<std::mutex> rlock(respawn_mu_);
      PingAllLocked();
      RespawnDeadLocked(kMaxRespawnsPerTick);
    }
    lock.lock();
    next += interval;
    const auto now = Clock::now();
    if (next <= now) {
      const auto behind = now - next;
      next += interval * (behind / interval + 1);
    }
  }
}

void ServeRouter::SpawnReplica(std::size_t s, std::size_t r,
                               const std::string& fault_spec) {
  // Gather every router-side fd before forking so the child can drop
  // them: a crashed sibling's socket must still read EOF at the router.
  // Connections cannot be retired concurrently — that happens only under
  // respawn_mu_, which the caller holds — so the fds stay valid across
  // the fork (a query marking one failed uses shutdown(2), not close(2)).
  std::vector<int> router_fds;
  for (const auto& gp : groups_) {
    if (gp == nullptr) continue;
    std::lock_guard<std::mutex> lock(gp->mu);
    for (const Replica& other : gp->members) {
      if (other.conn != nullptr) router_fds.push_back(other.conn->fd());
    }
  }
  Group& g = *groups_[s];
  int sv[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    std::lock_guard<std::mutex> lock(g.mu);
    g.members[r].alive = false;
    return;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(sv[0]);
    close(sv[1]);
    std::lock_guard<std::mutex> lock(g.mu);
    g.members[r].alive = false;
    return;
  }
  if (pid == 0) {
    close(sv[0]);
    for (const int fd : router_fds) close(fd);
    WorkerConfig config;
    config.shard_id = s;
    config.replica_id = r;
    config.store_path = ShardStorePath(dir_, s);
    config.index_path = ShardIndexPath(dir_, s);
    config.distance = options_.distance;
    config.fault_spec = fault_spec;
    if (!options_.worker_binary.empty()) {
      // Exec form: hand the socket over as fd 3.
      if (sv[1] != 3) {
        dup2(sv[1], 3);
        close(sv[1]);
      }
      execl(options_.worker_binary.c_str(), options_.worker_binary.c_str(),
            "--fd=3", ("--shard=" + std::to_string(s)).c_str(),
            ("--replica=" + std::to_string(r)).c_str(),
            ("--store=" + config.store_path).c_str(),
            ("--index=" + config.index_path).c_str(),
            ("--distance=" + config.distance).c_str(),
            ("--fault=" + config.fault_spec).c_str(), (char*)nullptr);
      _exit(127);
    }
    _exit(RunShardWorker(sv[1], config));
  }
  close(sv[1]);
  std::lock_guard<std::mutex> lock(g.mu);
  Replica& rep = g.members[r];
  rep.pid = pid;
  rep.conn = std::make_shared<Conn>(sv[0]);
  rep.alive = true;
}

void ServeRouter::ReapReplica(std::size_t s, std::size_t r) {
  std::shared_ptr<Conn> conn;
  pid_t pid = -1;
  {
    Group& g = *groups_[s];
    std::lock_guard<std::mutex> lock(g.mu);
    Replica& rep = g.members[r];
    conn = std::move(rep.conn);
    rep.conn.reset();
    pid = rep.pid;
    rep.pid = -1;
    rep.alive = false;
  }
  // Fail before dropping our reference: queries still pinned to this
  // connection wake with kClosed instead of waiting out their timeouts.
  if (conn != nullptr) conn->Fail();
  conn.reset();
  if (pid > 0) {
    kill(pid, SIGKILL);
    int status = 0;
    waitpid(pid, &status, 0);
  }
}

void ServeRouter::MarkDead(QueryCtx& ctx, std::size_t s, std::size_t r) {
  Participant& m = ctx.groups[s].members[r];
  m.alive = false;
  if (m.conn != nullptr) m.conn->Fail();
  // Propagate to the global member only while it still holds the same
  // connection: a respawn may already have replaced it, and the fresh
  // process must not be condemned for its predecessor's death.
  Group& g = *groups_[s];
  std::lock_guard<std::mutex> lock(g.mu);
  if (g.members[r].conn == m.conn) g.members[r].alive = false;
}

void ServeRouter::PinGroup(const Group& g, GroupCtx* gc) {
  gc->members.resize(g.members.size());
  for (std::size_t r = 0; r < g.members.size(); ++r) {
    gc->members[r].conn = g.members[r].conn;
    gc->members[r].alive = g.members[r].alive &&
                           g.members[r].conn != nullptr &&
                           !g.members[r].conn->failed();
  }
  gc->primary = g.primary;
}

void ServeRouter::SnapshotCtx(QueryCtx* ctx) const {
  std::uint32_t qid = ++qid_counter_;
  if (qid == 0) qid = ++qid_counter_;  // 0 is the control plane
  ctx->qid = qid;
  ctx->groups.resize(groups_.size());
  for (std::size_t s = 0; s < groups_.size(); ++s) {
    std::lock_guard<std::mutex> lock(groups_[s]->mu);
    PinGroup(*groups_[s], &ctx->groups[s]);
  }
}

ServeRouter::QueryCtx ServeRouter::ControlCtx(std::size_t s) {
  QueryCtx ctx;  // query id 0
  ctx.groups.resize(groups_.size());
  Group& g = *groups_[s];
  std::lock_guard<std::mutex> lock(g.mu);
  PinGroup(g, &ctx.groups[s]);
  // The reactor can fail a connection while the member's alive flag is
  // still set; mark it dead globally so RespawnDead and the health loop
  // revive it.
  for (std::size_t r = 0; r < g.members.size(); ++r) {
    if (!ctx.groups[s].members[r].alive) g.members[r].alive = false;
  }
  return ctx;
}

void ServeRouter::Promote(QueryCtx& ctx, std::size_t s, std::size_t r) {
  ctx.groups[s].primary = r;
  // Mirror to the global group when its member is unchanged, steering
  // later queries (and the monitoring accessors) at the live member.
  Group& g = *groups_[s];
  std::lock_guard<std::mutex> lock(g.mu);
  if (g.members[r].conn == ctx.groups[s].members[r].conn &&
      g.members[r].alive) {
    g.primary = r;
  }
}

bool ServeRouter::EnsurePrimary(QueryCtx& ctx, std::size_t s,
                                ServeResult* res) {
  GroupCtx& g = ctx.groups[s];
  if (g.members[g.primary].alive) return true;
  for (std::size_t r = 0; r < g.members.size(); ++r) {
    if (g.members[r].alive) {
      Promote(ctx, s, r);
      if (res != nullptr) ++res->failovers;
      return true;
    }
  }
  return false;
}

bool ServeRouter::SendRecv(QueryCtx& ctx, std::size_t s, std::size_t r,
                           FrameType type, const std::vector<char>& payload,
                           std::vector<char>* reply) {
  Participant& m = ctx.groups[s].members[r];
  for (int attempt = 0; attempt <= options_.op_retries; ++attempt) {
    if (!m.alive) return false;
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          BackoffMs(options_.backoff_base_ms, attempt)));
    }
    const std::uint32_t seq = m.conn->NextSeq();
    m.conn->Expect(seq, ctx.qid);
    if (!m.conn->Send(type, seq, ctx.qid, payload.data(), payload.size())) {
      m.conn->Cancel(seq);
      break;
    }
    Frame frame;
    const RecvStatus st = m.conn->Wait(seq, options_.op_timeout_ms, &frame);
    if (st == RecvStatus::kOk && frame.type == kReplyType) {
      if (reply != nullptr) *reply = std::move(frame.payload);
      return true;
    }
    // kError (a worker-side exception), an unexpected type, or a corrupt
    // or closed stream — never resynchronised: dead replica.
    if (st != RecvStatus::kTimeout) break;
    // kTimeout: deregister (a late reply becomes stale) and retry.
    m.conn->Cancel(seq);
  }
  MarkDead(ctx, s, r);
  return false;
}

std::size_t ServeRouter::Reconcile(
    QueryCtx& ctx, std::size_t s,
    const std::vector<std::optional<std::vector<char>>>& replies,
    const std::function<bool(const std::vector<char>&)>& accept,
    ServeResult* res) {
  GroupCtx& g = ctx.groups[s];
  const std::size_t size = g.members.size();
  const std::size_t primary = g.primary;
  // Validate before judging anyone: the driving reply is the first one the
  // caller accepts, so a refused primary cannot condemn an honest standby.
  std::size_t lead = size;
  const auto consider = [&](std::size_t r) {
    if (lead < size || !replies[r].has_value()) return;
    if (accept(*replies[r])) {
      lead = r;
    } else {
      MarkDead(ctx, s, r);
    }
  };
  consider(primary);
  for (std::size_t r = 0; r < size; ++r) {
    if (r != primary) consider(r);
  }
  if (lead == size) return size;  // the whole group failed
  // A failed or refused primary is replaced by the driving member, whose
  // state is bit-identical by construction — the failover that keeps a
  // query exact and unflagged.
  if (lead != primary) {
    Promote(ctx, s, lead);
    if (res != nullptr) ++res->failovers;
  }
  for (std::size_t r = 0; r < size; ++r) {
    if (r == lead || (r == primary && lead != primary) ||
        !replies[r].has_value() || *replies[r] == *replies[lead]) {
      continue;
    }
    MarkDead(ctx, s, r);
    if (res != nullptr) ++res->replicas_evicted;
  }
  return lead;
}

void ServeRouter::Replicate(std::size_t s, FrameType type,
                            const std::vector<char>& payload) {
  QueryCtx ctx = ControlCtx(s);
  std::vector<Participant>& members = ctx.groups[s].members;
  std::vector<std::uint32_t> seq(members.size(), 0);
  std::vector<char> sent(members.size(), 0);
  // Scatter to every live member first, so all replicas apply concurrently.
  for (std::size_t r = 0; r < members.size(); ++r) {
    Participant& p = members[r];
    if (!p.alive) continue;
    seq[r] = p.conn->NextSeq();
    p.conn->Expect(seq[r], ctx.qid);
    if (p.conn->Send(type, seq[r], ctx.qid, payload.data(), payload.size())) {
      sent[r] = 1;
    } else {
      p.conn->Cancel(seq[r]);
      MarkDead(ctx, s, r);
    }
  }
  // ...then gather in member order; a timed-out member is deregistered (its
  // late reply becomes stale) and retried fresh.
  std::vector<std::optional<std::vector<char>>> replies(members.size());
  for (std::size_t r = 0; r < members.size(); ++r) {
    if (!sent[r]) continue;
    Participant& p = members[r];
    Frame frame;
    const RecvStatus st = p.conn->Wait(seq[r], options_.op_timeout_ms, &frame);
    if (st == RecvStatus::kOk && frame.type == kReplyType) {
      replies[r] = std::move(frame.payload);
    } else if (st == RecvStatus::kTimeout) {
      p.conn->Cancel(seq[r]);
      std::vector<char> reply;
      if (SendRecv(ctx, s, r, type, payload, &reply)) replies[r] = reply;
    } else {
      MarkDead(ctx, s, r);
    }
  }
  Reconcile(ctx, s, replies,
            [](const std::vector<char>&) { return true; }, nullptr);
}

std::size_t ServeRouter::primary_of(std::size_t s) const {
  Group& g = *groups_[s];
  std::lock_guard<std::mutex> lock(g.mu);
  return g.primary;
}

pid_t ServeRouter::replica_pid(std::size_t s, std::size_t r) const {
  Group& g = *groups_[s];
  std::lock_guard<std::mutex> lock(g.mu);
  return g.members[r].pid;
}

bool ServeRouter::replica_alive(std::size_t s, std::size_t r) const {
  Group& g = *groups_[s];
  std::lock_guard<std::mutex> lock(g.mu);
  return g.members[r].alive;
}

bool ServeRouter::AnyDead() const {
  for (const auto& gp : groups_) {
    std::lock_guard<std::mutex> lock(gp->mu);
    for (const Replica& m : gp->members) {
      if (!m.alive) return true;
    }
  }
  return false;
}

void ServeRouter::MaybeRespawn() {
  // Cheap any-dead scan first: the common healthy query never touches
  // respawn_mu_ and never serializes behind another caller's respawn.
  if (!options_.auto_respawn || !AnyDead()) return;
  std::lock_guard<std::mutex> lock(respawn_mu_);
  RespawnDeadLocked(/*limit=*/0);
}

ServeResult ServeRouter::Nearest(std::string_view query) {
  return KNearest(query, 1);
}

namespace {

/// Feeds one job to DriveSweeps on its caller's thread and keeps the
/// result.
class OneJobFeed final : public SweepFeed {
 public:
  explicit OneJobFeed(const SweepJob& job) : job_(job) {}
  bool Next(SweepJob* out) override {
    if (taken_) return false;
    *out = job_;
    taken_ = true;
    return true;
  }
  bool Finished() override { return taken_; }
  void Deliver(std::uint64_t, ServeResult res, bool) override {
    result = std::move(res);
  }

  ServeResult result;

 private:
  SweepJob job_;
  bool taken_ = false;
};

ServeResult DriveOne(ServeRouter& router, const SweepJob& job) {
  OneJobFeed feed(job);
  router.DriveSweeps(feed, 1);
  return std::move(feed.result);
}

/// Empties a non-blocking wake pipe.
void DrainPipe(int fd) {
  char buf[256];
  while (::read(fd, buf, sizeof(buf)) > 0) {
  }
}

}  // namespace

ServeResult ServeRouter::KNearest(std::string_view query, std::size_t k) {
  return DriveOne(*this, SweepJob{query, k, nullptr, 0});
}

ServeResult ServeRouter::KNearestWithRow(std::string_view query, std::size_t k,
                                         const std::vector<double>& row) {
  if (row.size() != num_pivots()) {
    throw std::invalid_argument(
        "ServeRouter::KNearestWithRow: row must have num_pivots() entries");
  }
  return DriveOne(*this, SweepJob{query, k, row.data(), 0});
}

/// DriveSweeps' state: the admitted sweeps, each a `SweepMachine` plus the
/// legs of its current phase, the round's per-connection send buffers, and
/// the driver's epoll set: its own wake pipe, which the reactor writes
/// whenever another thread completes one of its legs, the feed's wake fd,
/// and every connection it has sent on. Connections are watched
/// EPOLLEXCLUSIVE, so an arrival wakes one sleeping driver, which drains
/// the connection for every driver sharing it. Read the phases side by
/// side with the in-process sweep (`PivotSweep`, pivot_sweep.cc): the
/// machine makes identical decisions on identical values in identical
/// order, and the legs only move its requests and replies.
class ServeRouter::Driver {
 public:
  Driver(ServeRouter& router, SweepFeed& feed, std::size_t wave)
      : r_(router), o_(router.options_), feed_(feed), wave_(wave) {
    int fds[2];
    epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epfd_ < 0 || ::pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0) {
      if (epfd_ >= 0) ::close(epfd_);
      throw std::runtime_error("ServeRouter::DriveSweeps: no wake fds");
    }
    wake_r_ = fds[0];
    wake_w_ = fds[1];
    struct epoll_event ev {};
    ev.events = EPOLLIN;
    ev.data.ptr = &wake_r_;
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, wake_r_, &ev);
    if (feed_.wake_fd() >= 0) {
      ev.data.ptr = &feed_;
      ::epoll_ctl(epfd_, EPOLL_CTL_ADD, feed_.wake_fd(), &ev);
    }
  }
  ~Driver() {
    ::close(epfd_);
    ::close(wake_r_);
    ::close(wake_w_);
  }
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  void Run();

 private:
  enum class Phase { kBegin, kEval, kStep, kDelta, kDone };

  /// One request of a sweep's current phase to one pinned member.
  struct Leg {
    std::size_t s = 0, r = 0;
    std::uint32_t seq = 0;
    bool pending = true;  // in flight, or waiting out a retry backoff
    bool hedged = false;  // eval/delta: a standby already races this one
    int attempt = 0;      // retries spent
    std::int64_t sent_ms = 0, expires_ms = 0;
    std::int64_t resend_ms = -1;  // >= 0: backing off until then
    std::optional<std::vector<char>> reply;  // begin/step: the answer
  };

  struct Sweep {
    Sweep(const SweepJob& j, SweepMachine machine)
        : job(j), m(std::move(machine)) {}
    SweepJob job;
    SweepMachine m;
    Phase phase = Phase::kBegin;
    FrameType type = FrameType::kPing;
    std::vector<char> request;  // the phase's payload: resends and hedges
    std::vector<char> open;     // eval/delta: per shard, still unanswered
    std::vector<Leg> legs;
    std::int64_t deadline = 0;
    QueryCtx ctx;
    ServeResult res;
  };

  static bool Replicated(const Sweep& sw) {
    return sw.phase == Phase::kBegin || sw.phase == Phase::kStep;
  }
  Conn* ConnOf(const Sweep& sw, const Leg& leg) const {
    return sw.ctx.groups[leg.s].members[leg.r].conn.get();
  }

  void Watch(const std::shared_ptr<Conn>& conn);
  void Buffer(Conn* conn, FrameType type, std::uint32_t seq,
              std::uint32_t qid, const std::vector<char>& payload);
  void Send(Sweep& sw, Leg& leg);
  void Start(Sweep& sw);
  void Scatter(Sweep& sw, Phase phase);
  void Read(Sweep& sw, Phase phase, FrameType type, std::vector<char> request,
            const std::vector<std::size_t>& shards);
  void ReadLeg(Sweep& sw, std::size_t s, int attempt);
  void Pump(Sweep& sw);
  void Advance(Sweep& sw);
  void Visit(Sweep& sw);
  void Settle(Sweep& sw);
  void Finish(Sweep& sw);
  void Expire(Sweep& sw);
  void OnReply(Sweep& sw, std::size_t i, std::vector<char> reply);
  void Lost(Sweep& sw, std::size_t i);
  void Timers(Sweep& sw, std::int64_t now);
  std::size_t Standby(const Sweep& sw, const Leg& leg) const;
  std::int64_t NextTimer(const Sweep& sw) const;
  void Service(Sweep& sw);
  void Park(std::int64_t cap_ms);
  void Flush();
  void DeliverSettled();

  ServeRouter& r_;
  const ServeOptions& o_;
  SweepFeed& feed_;
  const std::size_t wave_;
  int epfd_ = -1, wake_r_ = -1, wake_w_ = -1;
  std::unordered_map<Conn*, std::shared_ptr<Conn>> watched_;
  std::list<Sweep> sweeps_;
  // The round's requests, encoded per connection and flushed as one write.
  std::vector<Conn*> flush_order_;
  std::unordered_map<Conn*, std::vector<char>> outgoing_;
};

void ServeRouter::Driver::Watch(const std::shared_ptr<Conn>& conn) {
  if (watched_.count(conn.get()) != 0) return;
  struct epoll_event ev {};
  ev.events = EPOLLIN | EPOLLEXCLUSIVE;
  ev.data.ptr = conn.get();
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, conn->fd(), &ev) != 0) {
    conn->Fail();  // a connection the driver cannot watch, it cannot hear
    return;
  }
  watched_.emplace(conn.get(), conn);
}

void ServeRouter::Driver::Buffer(Conn* conn, FrameType type, std::uint32_t seq,
                                 std::uint32_t qid,
                                 const std::vector<char>& payload) {
  std::vector<char>& buf = outgoing_[conn];
  if (buf.empty()) flush_order_.push_back(conn);
  EncodeFrame(&buf, type, seq, qid, payload.data(), payload.size());
}

void ServeRouter::Driver::Send(Sweep& sw, Leg& leg) {
  const std::shared_ptr<Conn>& pinned =
      sw.ctx.groups[leg.s].members[leg.r].conn;
  Conn* conn = pinned.get();
  Watch(pinned);
  const std::int64_t now = NowMs();
  leg.seq = conn->NextSeq();
  leg.pending = true;
  leg.resend_ms = -1;
  leg.sent_ms = now;
  leg.expires_ms = std::min(now + o_.op_timeout_ms, sw.deadline);
  conn->Expect(leg.seq, sw.ctx.qid, wake_w_);
  Buffer(conn, sw.type, leg.seq, sw.ctx.qid, sw.request);
}

void ServeRouter::Driver::Start(Sweep& sw) {
  if (sw.m.k() == 0) {
    Finish(sw);
    return;
  }
  r_.SnapshotCtx(&sw.ctx);
  sw.deadline = NowMs() + o_.query_deadline_ms;
  for (std::size_t s = 0; s < r_.shard_count(); ++s) {
    if (!sw.ctx.groups[s].AnyAlive()) sw.m.Drop(s);
  }
  Scatter(sw, Phase::kBegin);
  Pump(sw);
}

// Begin or step: the machine's payload to every live member of every
// active group, the state-machine replication step. A begin is idempotent
// (retried); a step mutates the members' slab state (never retried).
void ServeRouter::Driver::Scatter(Sweep& sw, Phase phase) {
  const bool begin = phase == Phase::kBegin;
  sw.phase = phase;
  sw.type = begin ? FrameType::kBeginRow : FrameType::kStep;
  sw.request = begin ? sw.m.BeginPayload() : sw.m.StepPayload();
  sw.legs.clear();
  for (std::size_t s = 0; s < r_.shard_count(); ++s) {
    if (!sw.m.active(s)) continue;
    const GroupCtx& g = sw.ctx.groups[s];
    for (std::size_t r = 0; r < g.members.size(); ++r) {
      if (!g.members[r].alive) continue;
      sw.legs.emplace_back();
      sw.legs.back().s = s;
      sw.legs.back().r = r;
      Send(sw, sw.legs.back());
    }
  }
}

// Eval or delta scan: one idempotent read per shard, a pure function of the
// shard's state, so any live member's answer is exact.
void ServeRouter::Driver::Read(Sweep& sw, Phase phase, FrameType type,
                               std::vector<char> request,
                               const std::vector<std::size_t>& shards) {
  sw.phase = phase;
  sw.type = type;
  sw.request = std::move(request);
  sw.legs.clear();
  sw.open.assign(r_.shard_count(), 0);
  for (const std::size_t s : shards) {
    sw.open[s] = 1;
    ReadLeg(sw, s, 0);
  }
}

// The read goes to the group's primary, promoting a live member when the
// primary is dead; with none left the shard is lost to the query.
void ServeRouter::Driver::ReadLeg(Sweep& sw, std::size_t s, int attempt) {
  if (!r_.EnsurePrimary(sw.ctx, s, &sw.res)) {
    sw.m.Drop(s);
    sw.open[s] = 0;
    return;
  }
  sw.legs.emplace_back();
  Leg& leg = sw.legs.back();
  leg.s = s;
  leg.r = sw.ctx.groups[s].primary;
  leg.attempt = attempt;
  Send(sw, leg);
}

// The phase has settled (no leg pending): issue the next one.
void ServeRouter::Driver::Advance(Sweep& sw) {
  switch (sw.phase) {
    case Phase::kBegin:
    case Phase::kStep:
      Settle(sw);
      Visit(sw);
      break;
    case Phase::kEval:
      // A lost candidate's group drops its shard; no visit happened, so no
      // counters move and the next candidate comes from the survivors.
      if (sw.m.active(sw.m.cand_shard())) {
        Scatter(sw, Phase::kStep);
      } else {
        Visit(sw);
      }
      break;
    case Phase::kDelta:
      Finish(sw);
      break;
    case Phase::kDone:
      break;
  }
}

void ServeRouter::Driver::Visit(Sweep& sw) {
  if (sw.m.Next() == kSweepNone) {
    // The base sweep is done. Everything inserted since the snapshot lives
    // in the workers' deltas: one bounded scan per shard holding live
    // delta entries, capped by the base sweep's incumbents.
    std::vector<std::size_t> delta;
    for (std::size_t s = 0; s < r_.shard_count(); ++s) {
      if (sw.m.HasDelta(s)) delta.push_back(s);
    }
    if (delta.empty()) {
      Finish(sw);
    } else {
      Read(sw, Phase::kDelta, FrameType::kDeltaScan, sw.m.DeltaPayload(),
           delta);
    }
    return;
  }
  Read(sw, Phase::kEval, FrameType::kEval, sw.m.EvalPayload(),
       {sw.m.cand_shard()});
}

// Reconciles each active group's begin or step replies into the machine;
// a group with no accepted reply is lost and its shard dropped.
void ServeRouter::Driver::Settle(Sweep& sw) {
  const bool begin = sw.phase == Phase::kBegin;
  std::vector<std::optional<std::vector<char>>> replies;
  for (std::size_t s = 0; s < r_.shard_count(); ++s) {
    if (!sw.m.active(s)) continue;
    replies.assign(sw.ctx.groups[s].members.size(), std::nullopt);
    for (Leg& leg : sw.legs) {
      if (leg.s == s) replies[leg.r] = std::move(leg.reply);
    }
    const auto accept = [&](const std::vector<char>& reply) {
      return begin ? sw.m.AbsorbBegin(s, reply) : sw.m.AbsorbStep(s, reply);
    };
    if (r_.Reconcile(sw.ctx, s, replies, accept, &sw.res) ==
        replies.size()) {
      sw.m.Drop(s);
    }
  }
}

// Retires the workers' sweep slots with fire-and-forget kEndSweep frames
// riding the round's flush; the workers tolerate one round of lag.
void ServeRouter::Driver::Finish(Sweep& sw) {
  sw.m.Finish(&sw.res);
  for (const GroupCtx& g : sw.ctx.groups) {
    for (const Participant& m : g.members) {
      if (m.conn == nullptr || m.conn->failed()) continue;
      Buffer(m.conn.get(), FrameType::kEndSweep, m.conn->NextSeq(),
             sw.ctx.qid, {});
    }
  }
  sw.legs.clear();
  sw.phase = Phase::kDone;
}

// The query deadline: every shard still owing a reply is lost to the
// query (its members stay alive — they were slow, not wrong), what did
// arrive is settled, and the machine's incumbents stand.
void ServeRouter::Driver::Expire(Sweep& sw) {
  for (Leg& leg : sw.legs) {
    if (!leg.pending) continue;
    if (leg.resend_ms < 0) ConnOf(sw, leg)->Cancel(leg.seq);
    leg.pending = false;
    sw.m.Drop(leg.s);
  }
  if (Replicated(sw)) Settle(sw);
  sw.m.Expire();
  Finish(sw);
}

void ServeRouter::Driver::OnReply(Sweep& sw, std::size_t i,
                                  std::vector<char> reply) {
  Leg& leg = sw.legs[i];
  leg.pending = false;
  if (Replicated(sw)) {
    leg.reply = std::move(reply);
    return;
  }
  const std::size_t s = leg.s;
  const bool accepted = sw.phase == Phase::kEval
                            ? sw.m.AbsorbEvalReply(reply)
                            : sw.m.AbsorbDelta(s, reply);
  if (!accepted) {
    Lost(sw, i);  // a refused reply: the member's state is suspect
    return;
  }
  // First valid reply wins; the racing leg's late reply becomes stale.
  sw.open[s] = 0;
  for (Leg& other : sw.legs) {
    if (other.s != s || !other.pending) continue;
    if (other.resend_ms < 0) ConnOf(sw, other)->Cancel(other.seq);
    other.pending = false;
  }
}

// A leg whose member crashed, errored, or sent a refused reply: the member
// is dead. A read with no other leg racing goes to the next live member.
void ServeRouter::Driver::Lost(Sweep& sw, std::size_t i) {
  const std::size_t s = sw.legs[i].s;
  const int attempt = sw.legs[i].attempt;
  sw.legs[i].pending = false;
  r_.MarkDead(sw.ctx, s, sw.legs[i].r);
  if (Replicated(sw) || !sw.open[s]) return;
  for (const Leg& leg : sw.legs) {
    if (leg.s == s && leg.pending) return;
  }
  ReadLeg(sw, s, attempt);
}

std::size_t ServeRouter::Driver::Standby(const Sweep& sw,
                                         const Leg& leg) const {
  const GroupCtx& g = sw.ctx.groups[leg.s];
  for (std::size_t r = 0; r < g.members.size(); ++r) {
    if (r != leg.r && g.members[r].alive) return r;
  }
  return g.members.size();
}

// Fires the sweep's due timers: retry backoffs, leg timeouts, hedges.
void ServeRouter::Driver::Timers(Sweep& sw, std::int64_t now) {
  const bool read = !Replicated(sw);
  std::vector<std::size_t> expired;  // read legs whose window just passed
  for (std::size_t i = 0; i < sw.legs.size(); ++i) {
    Leg& leg = sw.legs[i];
    if (!leg.pending) continue;
    if (leg.resend_ms >= 0) {
      if (now < leg.resend_ms) continue;
      if (read) {
        // A retried read re-resolves its target: the primary may have
        // changed while it backed off.
        leg.pending = false;
        ReadLeg(sw, leg.s, leg.attempt);
      } else if (sw.ctx.groups[leg.s].members[leg.r].alive) {
        Send(sw, leg);
      } else {
        leg.pending = false;
      }
      continue;
    }
    if (now >= leg.expires_ms) {
      ConnOf(sw, leg)->Cancel(leg.seq);  // a late reply becomes stale
      if (read) {
        leg.pending = false;
        expired.push_back(i);
      } else if (sw.phase == Phase::kBegin && leg.attempt < o_.op_retries) {
        ++leg.attempt;
        leg.resend_ms = now + BackoffMs(o_.backoff_base_ms, leg.attempt);
      } else {
        Lost(sw, i);  // a step is never retried on the same member
      }
      continue;
    }
    if (read && !leg.hedged && o_.hedge_delay_ms >= 0 &&
        now >= leg.sent_ms + o_.hedge_delay_ms) {
      const std::size_t standby = Standby(sw, leg);
      if (standby == sw.ctx.groups[leg.s].members.size()) continue;
      // Race the read to a standby inside the same attempt window.
      leg.hedged = true;
      const std::int64_t expires = leg.expires_ms;
      Leg hedge;
      hedge.s = leg.s;
      hedge.r = standby;
      hedge.hedged = true;
      hedge.attempt = leg.attempt;
      sw.legs.push_back(std::move(hedge));
      Send(sw, sw.legs.back());
      sw.legs.back().expires_ms = expires;
      ++sw.res.hedged_evals;
    }
  }
  // A read whose attempt window passed with no leg left racing retries
  // after its backoff or, out of retries, condemns the members it tried and
  // moves on to the next live one.
  for (const std::size_t i : expired) {
    const std::size_t s = sw.legs[i].s;
    const auto racing = [&](const Leg& leg) {
      return leg.s == s && leg.pending;
    };
    if (!sw.open[s] || std::any_of(sw.legs.begin(), sw.legs.end(), racing)) {
      continue;
    }
    if (sw.legs[i].attempt < o_.op_retries) {
      Leg retry;
      retry.s = s;
      retry.attempt = sw.legs[i].attempt + 1;
      retry.resend_ms = now + BackoffMs(o_.backoff_base_ms, retry.attempt);
      sw.legs.push_back(std::move(retry));
      continue;
    }
    for (const std::size_t j : expired) {
      if (sw.legs[j].s == s) r_.MarkDead(sw.ctx, s, sw.legs[j].r);
    }
    ReadLeg(sw, s, 0);
  }
}

std::int64_t ServeRouter::Driver::NextTimer(const Sweep& sw) const {
  std::int64_t next = sw.deadline;
  for (const Leg& leg : sw.legs) {
    if (!leg.pending) continue;
    if (leg.resend_ms >= 0) {
      next = std::min(next, leg.resend_ms);
      continue;
    }
    next = std::min(next, leg.expires_ms);
    if (!Replicated(sw) && !leg.hedged && o_.hedge_delay_ms >= 0 &&
        Standby(sw, leg) < sw.ctx.groups[leg.s].members.size()) {
      next = std::min(next, leg.sent_ms + o_.hedge_delay_ms);
    }
  }
  return next;
}

void ServeRouter::Driver::Pump(Sweep& sw) {
  const auto pending = [](const Leg& leg) { return leg.pending; };
  while (sw.phase != Phase::kDone &&
         std::none_of(sw.legs.begin(), sw.legs.end(), pending)) {
    Advance(sw);
  }
}

// Collects the sweep's arrived replies, then fires its deadline or its due
// timers, then advances every phase that settled.
void ServeRouter::Driver::Service(Sweep& sw) {
  for (std::size_t i = 0; i < sw.legs.size(); ++i) {
    Leg& leg = sw.legs[i];
    if (!leg.pending || leg.resend_ms >= 0) continue;
    Frame f;
    const RecvStatus st = ConnOf(sw, leg)->TryWait(leg.seq, &f);
    if (st == RecvStatus::kOk && f.type == kReplyType) {
      OnReply(sw, i, std::move(f.payload));
    } else if (st != RecvStatus::kTimeout) {
      Lost(sw, i);  // kError, an unexpected type, or a dead stream
    }
  }
  const std::int64_t now = NowMs();
  if (now >= sw.deadline) {
    Expire(sw);
    return;
  }
  Timers(sw, now);
  Pump(sw);
}

// Parks until a watched connection is readable, a wake fd fires, or the
// nearest timer is due — at most `cap_ms` — then drains what fired. A
// connection is drained whoever's replies it holds: the reactor wakes
// their drivers.
void ServeRouter::Driver::Park(std::int64_t cap_ms) {
  const std::int64_t now = NowMs();
  std::int64_t next = now + cap_ms;
  for (const Sweep& sw : sweeps_) next = std::min(next, NextTimer(sw));
  struct epoll_event events[64];
  const auto wait = static_cast<int>(std::max<std::int64_t>(next - now, 0));
  const int n = ::epoll_wait(epfd_, events, 64, wait);
  for (int i = 0; i < n; ++i) {
    void* tag = events[i].data.ptr;
    if (tag == &wake_r_) {
      DrainPipe(wake_r_);
    } else if (tag == &feed_) {
      DrainPipe(feed_.wake_fd());
    } else {
      Conn* conn = static_cast<Conn*>(tag);
      if (conn->failed()) {
        // A dead stream stays readable: stop watching it. Its legs read
        // kClosed from TryWait.
        ::epoll_ctl(epfd_, EPOLL_CTL_DEL, conn->fd(), nullptr);
        watched_.erase(conn);
      } else {
        conn->Drain(wake_w_);
      }
    }
  }
}

void ServeRouter::Driver::Flush() {
  for (Conn* conn : flush_order_) {
    std::vector<char>& buf = outgoing_[conn];
    if (!buf.empty()) conn->SendRaw(buf.data(), buf.size());
    buf.clear();
  }
  flush_order_.clear();
}

void ServeRouter::Driver::DeliverSettled() {
  for (auto it = sweeps_.begin(); it != sweeps_.end();) {
    if (it->phase == Phase::kDone) {
      feed_.Deliver(it->job.tag, std::move(it->res), /*bailed=*/false);
      it = sweeps_.erase(it);
    } else {
      ++it;
    }
  }
}

void ServeRouter::Driver::Run() {
  std::shared_lock<std::shared_mutex> world(r_.world_mu_, std::defer_lock);
  for (;;) {
    if (sweeps_.empty() && feed_.Finished()) break;
    if (!world.owns_lock()) world.lock();
    // A writer announced itself: stop admitting so the wave drains and
    // the shared hold can be released below. In read-only steady state
    // this branch never fires and the driver keeps the lock indefinitely
    // — cycling it on a timer would decay the wave to nothing once per
    // cycle for no one's benefit.
    const bool writer_waiting =
        r_.writers_waiting_.load(std::memory_order_relaxed) > 0;
    if (!writer_waiting) {
      SweepJob job;
      while (sweeps_.size() < wave_ && feed_.Next(&job)) {
        r_.MaybeRespawn();
        sweeps_.emplace_back(
            job, SweepMachine(r_.shape_, r_.world_, *r_.distance_, job.query,
                              job.k, job.row));
        Start(sweeps_.back());
      }
    }
    Flush();
    DeliverSettled();

    if (sweeps_.empty()) {
      // Nothing in flight: give the world back (a writer may be waiting
      // on it) and park for new work. The deliberate gap after a
      // writer-forced drain lets the blocked Insert/Remove actually win
      // the lock before we re-take it.
      world.unlock();
      if (writer_waiting) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
      if (feed_.Finished()) break;
      Park(feed_.wake_fd() >= 0 ? 50 : 1);  // no wake fd: a 1 ms nap
      continue;
    }

    Park(INT_MAX);
    // One pass suffices: Park already read everything that arrived, and
    // the requests issued here stay buffered until the flush below.
    for (Sweep& sw : sweeps_) {
      if (sw.phase != Phase::kDone) Service(sw);
    }
    Flush();
    DeliverSettled();
  }
}

void ServeRouter::DriveSweeps(SweepFeed& feed, std::size_t max_concurrent) {
  Driver(*this, feed, max_concurrent == 0 ? 16 : max_concurrent).Run();
}

bool ServeRouter::PingAll() {
  std::lock_guard<std::mutex> lock(respawn_mu_);
  return PingAllLocked();
}

bool ServeRouter::PingAllLocked() {
  bool all = true;
  for (std::size_t s = 0; s < groups_.size(); ++s) {
    QueryCtx ctx = ControlCtx(s);
    for (std::size_t r = 0; r < ctx.groups[s].members.size(); ++r) {
      std::vector<char> reply;
      if (!SendRecv(ctx, s, r, FrameType::kPing, {}, &reply)) {
        all = false;
        continue;
      }
      PayloadReader pr(reply);
      // The ping reply echoes the worker's identity: a replica serving
      // the wrong shard (or the wrong group slot) is as dead as one
      // serving nothing.
      if (pr.U64() != s || pr.U64() != r || !pr.Done()) {
        MarkDead(ctx, s, r);
        all = false;
      }
    }
  }
  return all;
}

std::size_t ServeRouter::RespawnDead() {
  std::lock_guard<std::mutex> lock(respawn_mu_);
  return RespawnDeadLocked(/*limit=*/0);
}

std::size_t ServeRouter::RespawnDeadLocked(std::size_t limit) {
  std::size_t revived = 0, attempts = 0;
  for (std::size_t s = 0; s < groups_.size(); ++s) {
    Group& g = *groups_[s];
    for (std::size_t r = 0; r < g.members.size(); ++r) {
      {
        std::lock_guard<std::mutex> lock(g.mu);
        if (g.members[r].alive) continue;
      }
      // The cap counts respawn *attempts*, so a permanently failing spawn
      // cannot loop one tick forever; the remainder waits its turn.
      if (limit > 0 && attempts >= limit) continue;
      ++attempts;
      ReapReplica(s, r);
      SpawnReplica(s, r, options_.respawn_fault_spec);
      {
        std::lock_guard<std::mutex> lock(g.mu);
        if (!g.members[r].alive) continue;
      }
      // A fresh fork maps only the immutable snapshot: after its ping,
      // replay the shard's mutation journal — delta and tombstone state is
      // process-local — so it rejoins at the group's current state (ops
      // are idempotent by id, so a partial previous life is harmless). A
      // failed exchange has already marked it dead.
      QueryCtx ctx = ControlCtx(s);
      std::vector<char> reply;
      bool ok = SendRecv(ctx, s, r, FrameType::kPing, {}, &reply);
      for (const MutationOp& op : shard_ops_[s]) {
        ok = ok && SendRecv(ctx, s, r, op.type(), op.Payload(), nullptr);
      }
      if (ok) ++revived;
    }
    // A fully-restored group keeps its current primary; a group whose
    // primary slot is still dead points at the first live member so the
    // next query starts on a live primary without a mid-query promotion.
    std::lock_guard<std::mutex> lock(g.mu);
    if (!g.members[g.primary].alive) {
      for (std::size_t r = 0; r < g.members.size(); ++r) {
        if (g.members[r].alive) {
          g.primary = r;
          break;
        }
      }
    }
  }
  return revived;
}

std::uint64_t ServeRouter::Insert(std::string_view s) {
  // World-exclusive: mutations are globally serialized in journal order
  // and never interleave with an in-flight sweep (per-shard writer order
  // is a consequence). respawn_mu_ follows in the lock hierarchy — the
  // journal append below is thereby visible to both lock holders. The
  // waiting-writer announcement is what makes the sweep driver drain and
  // release its shared hold (see writers_waiting_).
  writers_waiting_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::shared_mutex> world(world_mu_);
  writers_waiting_.fetch_sub(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> rlock(respawn_mu_);
  if (options_.auto_respawn) RespawnDeadLocked(/*limit=*/0);
  const std::uint64_t id = next_insert_id_++;
  const std::size_t owner = static_cast<std::size_t>((id - n_) % shard_count());
  world_.delta.Grow(next_insert_id_ - n_);
  ++world_.delta_live[owner];
  MutationOp op;
  op.insert = true;
  op.id = id;
  op.s.assign(s);
  // Journal before replicating: even if the whole group is down right now,
  // the next respawn replays the journal, so the id is durably assigned
  // from the router's point of view either way. Every live member applies
  // the op; replies are byte-checked (dedup-stable, so retries after lost
  // replies still agree), and a member that fails is dead — to be replayed
  // at respawn, as is a group that fails whole.
  shard_ops_[owner].push_back(std::move(op));
  Replicate(owner, FrameType::kInsert, shard_ops_[owner].back().Payload());
  return id;
}

bool ServeRouter::Remove(std::uint64_t id) {
  writers_waiting_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::shared_mutex> world(world_mu_);
  writers_waiting_.fetch_sub(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> rlock(respawn_mu_);
  if (options_.auto_respawn) RespawnDeadLocked(/*limit=*/0);
  std::size_t owner = 0;
  if (id < n_) {
    if (!world_.base.Kill(id)) return false;
    owner = shape_.ShardOf(id);
    ++world_.shard_dead[owner];
  } else if (id < next_insert_id_) {
    if (!world_.delta.Kill(id - n_)) return false;
    owner = static_cast<std::size_t>((id - n_) % shard_count());
    --world_.delta_live[owner];
  } else {
    return false;
  }
  MutationOp op;
  op.id = id;
  shard_ops_[owner].push_back(std::move(op));
  Replicate(owner, FrameType::kRemove, shard_ops_[owner].back().Payload());
  return true;
}

std::size_t ServeRouter::live_size() const {
  std::shared_lock<std::shared_mutex> world(world_mu_);
  return world_.LiveTotal(n_);
}

std::uint64_t ServeRouter::next_insert_id() const {
  std::shared_lock<std::shared_mutex> world(world_mu_);
  return next_insert_id_;
}

std::vector<char> ServeRouter::MutationOp::Payload() const {
  PayloadWriter w;
  w.U64(id);
  if (insert) w.Str(s);
  return std::move(w.buf);
}

}  // namespace cned
