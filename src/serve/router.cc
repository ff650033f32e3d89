#include "serve/router.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <list>
#include <stdexcept>
#include <thread>
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

/// Exponential backoff before retry `attempt` (1-based), capped at the
/// time remaining before `deadline_ms` (-1 = unbounded) so a retrying op
/// can never sleep a query past its budget.
void BackoffSleep(int backoff_base_ms, int attempt, std::int64_t deadline_ms) {
  const int shift = attempt - 1 < 20 ? attempt - 1 : 20;
  std::int64_t sleep_ms = static_cast<std::int64_t>(backoff_base_ms) << shift;
  if (deadline_ms >= 0) {
    const std::int64_t left = deadline_ms - NowMs();
    if (left <= 0) return;
    if (sleep_ms > left) sleep_ms = left;
  }
  if (sleep_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
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
  // The manifest is small (pivot ids + strings); the copying reader also
  // gives the router the same always-on checksum verification the workers
  // run on their shard files.
  BinaryReader reader(ManifestPath(dir_));
  const auto counts =
      reader.Header(kRouterManifestMagic, kRouterManifestVersion);
  n_ = counts[0];
  const std::uint64_t shards = counts[1];
  const std::uint64_t np = counts[2];
  const std::uint64_t arena_bytes = counts[3];
  if (shards == 0 || np == 0 || np > n_) {
    throw std::runtime_error("ServeRouter: malformed manifest counts");
  }
  reader.RequireArray(shards, sizeof(std::uint64_t));
  std::vector<std::size_t> shard_sizes(shards);
  reader.Align();
  static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
                "64-bit shard sizes expected");
  reader.Raw(shard_sizes.data(), shards * sizeof(std::uint64_t));
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
  reader.RequireArray(np, sizeof(std::uint64_t));
  shape_.pivots.resize(np);
  reader.Align();
  reader.Raw(shape_.pivots.data(), np * sizeof(std::uint64_t));
  shape_.pivot_rank =
      RankPivots(shape_.pivots, n_, /*distinct=*/true, "ServeRouter");
  reader.RequireArray(np, sizeof(std::uint64_t));
  std::vector<std::uint64_t> lens(np);
  reader.Align();
  reader.Raw(lens.data(), np * sizeof(std::uint64_t));
  // Each length must fit in what is left of the arena, so the running sum
  // cannot wrap past the total check.
  std::uint64_t lens_total = 0;
  for (std::uint64_t l : lens) {
    if (l > arena_bytes - lens_total) {
      throw std::runtime_error("ServeRouter: pivot lengths exceed the arena");
    }
    lens_total += l;
  }
  if (lens_total != arena_bytes) {
    throw std::runtime_error("ServeRouter: manifest pivot arena mismatch");
  }
  reader.Align();
  pivot_strings_.resize(np);
  for (std::size_t p = 0; p < np; ++p) {
    pivot_strings_[p].resize(lens[p]);
    reader.Raw(pivot_strings_[p].data(), lens[p]);
  }

  next_insert_id_ = n_;
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

void ServeRouter::EndSweeps(const QueryCtx& ctx) {
  for (const GroupCtx& g : ctx.groups) {
    for (const Participant& m : g.members) {
      if (m.conn == nullptr || m.conn->failed()) continue;
      // Fire-and-forget (no Expect): the worker retires the sweep slot
      // and sends nothing back.
      m.conn->Send(FrameType::kEndSweep, m.conn->NextSeq(), ctx.qid, nullptr,
                   0);
    }
  }
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
                           std::vector<char>* reply, int timeout_ms,
                           bool retryable, std::int64_t deadline_ms) {
  Participant& m = ctx.groups[s].members[r];
  const int attempts = retryable ? 1 + options_.op_retries : 1;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (!m.alive) return false;
    // Gate on the remaining deadline before sleeping or sending: an
    // already-expired query must not burn a full send+recv window. The
    // break still reaches the MarkDead below — GroupEval's retry loop
    // relies on a false return leaving the replica dead.
    std::int64_t left = timeout_ms;
    if (deadline_ms >= 0) {
      left = deadline_ms - NowMs();
      if (left <= 0) break;
    }
    if (attempt > 0) {
      BackoffSleep(options_.backoff_base_ms, attempt, deadline_ms);
      if (deadline_ms >= 0) {
        left = deadline_ms - NowMs();
        if (left <= 0) break;
      }
    }
    const std::uint32_t seq = m.conn->NextSeq();
    m.conn->Expect(seq, ctx.qid);
    if (!m.conn->Send(type, seq, ctx.qid, payload.data(), payload.size())) {
      m.conn->Cancel(seq);
      MarkDead(ctx, s, r);
      return false;
    }
    // Cap the per-attempt recv window at the remaining deadline, so one
    // slow attempt cannot overshoot the whole query budget.
    const int window =
        deadline_ms >= 0 && left < timeout_ms ? static_cast<int>(left)
                                              : timeout_ms;
    Frame frame;
    const RecvStatus st = m.conn->Wait(seq, window, &frame);
    if (st == RecvStatus::kOk) {
      if (frame.type != kReplyType) {
        // kError (a worker-side exception) or an unexpected type: the
        // replica's state is suspect either way.
        MarkDead(ctx, s, r);
        return false;
      }
      if (reply != nullptr) *reply = std::move(frame.payload);
      return true;
    }
    if (st != RecvStatus::kTimeout) {
      // A corrupt or closed stream is never resynchronised: dead replica.
      MarkDead(ctx, s, r);
      return false;
    }
    // kTimeout: deregister (a late reply becomes stale) and retry when
    // the op allows it.
    m.conn->Cancel(seq);
    if (!retryable) {
      MarkDead(ctx, s, r);
      return false;
    }
  }
  MarkDead(ctx, s, r);
  return false;
}

bool ServeRouter::ControlSendRecv(std::size_t s, std::size_t r, FrameType type,
                                  const std::vector<char>& payload,
                                  std::vector<char>* reply, bool retryable) {
  QueryCtx ctx = ControlCtx(s);
  return SendRecv(ctx, s, r, type, payload, reply, options_.op_timeout_ms,
                  retryable, /*deadline_ms=*/-1);
}

std::vector<std::optional<std::vector<char>>> ServeRouter::Replicate(
    QueryCtx& ctx, const std::vector<std::size_t>& shards, FrameType type,
    const std::vector<char>& payload, bool retryable, int timeout_ms,
    std::int64_t deadline_ms, ServeResult* res) {
  const std::size_t R = replicas_per_shard_;
  // Per (shard, member) scatter state, flat-indexed s * R + r.
  const std::size_t slots = ctx.groups.size() * R;
  std::vector<std::uint32_t> sent_seq(slots, 0);
  std::vector<char> pending(slots, 0), good(slots, 0);
  std::vector<std::vector<char>> member_reply(slots);

  // Scatter to every live pinned member first, so all replicas compute
  // concurrently — this is the state-machine replication step: standbys
  // consume the identical op stream. With concurrent queries in flight,
  // the reactor's send coalescing merges these frames with other queries'
  // into fewer syscalls.
  for (const std::size_t s : shards) {
    GroupCtx& g = ctx.groups[s];
    for (std::size_t r = 0; r < g.members.size(); ++r) {
      Participant& p = g.members[r];
      if (!p.alive) continue;
      const std::size_t i = s * R + r;
      sent_seq[i] = p.conn->NextSeq();
      p.conn->Expect(sent_seq[i], ctx.qid);
      if (p.conn->Send(type, sent_seq[i], ctx.qid, payload.data(),
                       payload.size())) {
        pending[i] = 1;
      } else {
        p.conn->Cancel(sent_seq[i]);
        MarkDead(ctx, s, r);
      }
    }
  }
  // ...then gather in (shard, member) order. Later waits usually complete
  // instantly: whichever thread reads the socket completes every waiter
  // whose frame arrived in the same drain.
  for (const std::size_t s : shards) {
    for (std::size_t r = 0; r < ctx.groups[s].members.size(); ++r) {
      const std::size_t i = s * R + r;
      if (!pending[i]) continue;
      Participant& p = ctx.groups[s].members[r];
      Frame frame;
      const RecvStatus st = p.conn->Wait(sent_seq[i], timeout_ms, &frame);
      if (st == RecvStatus::kOk && frame.type == kReplyType) {
        member_reply[i] = std::move(frame.payload);
        good[i] = 1;
      } else if (st == RecvStatus::kTimeout && retryable) {
        // Deregister — the late reply becomes stale — then retry fresh.
        p.conn->Cancel(sent_seq[i]);
        good[i] = SendRecv(ctx, s, r, type, payload, &member_reply[i],
                           timeout_ms, /*retryable=*/true, deadline_ms);
      } else {
        // A mutating op that timed out costs the replica its life on the
        // spot, as do kError, an unexpected type and a broken stream.
        if (st == RecvStatus::kTimeout) p.conn->Cancel(sent_seq[i]);
        MarkDead(ctx, s, r);
      }
    }
  }
  // Reconcile each group: the primary's reply drives; standbys must agree
  // byte-for-byte or be evicted as corrupt; a failed primary is replaced
  // by the first standby that answered (whose state is bit-identical by
  // construction) — the failover that keeps a query exact and unflagged.
  std::vector<std::optional<std::vector<char>>> driving(ctx.groups.size());
  for (const std::size_t s : shards) {
    GroupCtx& g = ctx.groups[s];
    std::size_t lead = g.members.size();
    if (good[s * R + g.primary]) {
      lead = g.primary;
    } else {
      for (std::size_t r = 0; r < g.members.size(); ++r) {
        if (good[s * R + r]) {
          lead = r;
          break;
        }
      }
      if (lead < g.members.size()) {
        Promote(ctx, s, lead);
        if (res != nullptr) ++res->failovers;
      }
    }
    if (lead == g.members.size()) continue;  // the whole group failed
    for (std::size_t r = 0; r < g.members.size(); ++r) {
      if (r == lead || !good[s * R + r]) continue;
      if (member_reply[s * R + r] != member_reply[s * R + lead]) {
        MarkDead(ctx, s, r);
        if (res != nullptr) ++res->replicas_evicted;
      }
    }
    driving[s] = std::move(member_reply[s * R + lead]);
  }
  return driving;
}

void ServeRouter::Broadcast(QueryCtx& ctx, SweepMachine& m, bool begin,
                            std::int64_t deadline_ms, ServeResult* res) {
  std::vector<std::size_t> shards;
  for (std::size_t s = 0; s < shard_count(); ++s) {
    if (m.active(s)) shards.push_back(s);
  }
  const auto replies =
      Replicate(ctx, shards, begin ? m.begin_type() : m.step_type(),
                begin ? m.BeginPayload() : m.StepPayload(),
                /*retryable=*/begin, RemainingMs(deadline_ms), deadline_ms,
                res);
  for (const std::size_t s : shards) {
    if (!replies[s].has_value()) {
      // The whole replica group is gone: only now does the shard degrade.
      m.Drop(s);
      continue;
    }
    if (begin ? m.AbsorbBegin(s, *replies[s]) : m.AbsorbStep(s, *replies[s])) {
      continue;
    }
    // The driving reply decoded to garbage (CRC-valid but wrong): with the
    // primary's stream suspect there is no quorum to promote on, so the
    // shard sits this query out. After a begin, EnsurePrimary (without
    // counting a failover — nothing was saved) leaves the group pointing
    // at a live member for the next query.
    MarkDead(ctx, s, ctx.groups[s].primary);
    if (begin) EnsurePrimary(ctx, s, nullptr);
    m.Drop(s);
  }
}

bool ServeRouter::GroupEval(QueryCtx& ctx, std::size_t s, FrameType type,
                            const std::vector<char>& payload,
                            std::vector<char>* reply, std::int64_t deadline_ms,
                            ServeResult* res) {
  GroupCtx& g = ctx.groups[s];
  if (!EnsurePrimary(ctx, s, res)) return false;

  auto pick_standby = [&]() -> std::size_t {
    for (std::size_t r = 0; r < g.members.size(); ++r) {
      if (r != g.primary && g.members[r].alive) return r;
    }
    return g.members.size();
  };

  if (options_.hedge_delay_ms < 0 || pick_standby() == g.members.size()) {
    // No hedging possible: plain retried exchange, failing over to the
    // next member while any remains (the op is pure, so a promoted standby
    // answers identically).
    while (EnsurePrimary(ctx, s, res)) {
      if (SendRecv(ctx, s, g.primary, type, payload, reply,
                   RemainingMs(deadline_ms), /*retryable=*/true,
                   deadline_ms)) {
        return true;
      }
    }
    return false;
  }

  const int attempts = 1 + options_.op_retries;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      BackoffSleep(options_.backoff_base_ms, attempt, deadline_ms);
    }
    if (!EnsurePrimary(ctx, s, res)) return false;
    const int window = RemainingMs(deadline_ms);
    if (window == 0) break;
    const std::int64_t attempt_end = NowMs() + window;

    const std::size_t prim_idx = g.primary;
    Participant& prim = g.members[prim_idx];
    const std::uint32_t pseq = prim.conn->NextSeq();
    prim.conn->Expect(pseq, ctx.qid);
    if (!prim.conn->Send(type, pseq, ctx.qid, payload.data(),
                         payload.size())) {
      prim.conn->Cancel(pseq);
      MarkDead(ctx, s, prim_idx);
      continue;
    }
    bool p_pending = true;

    // Phase 1: give the primary the hedge window to itself.
    {
      const std::int64_t left = attempt_end - NowMs();
      int hedge = options_.hedge_delay_ms;
      if (hedge > left) hedge = static_cast<int>(left > 0 ? left : 0);
      Frame frame;
      const RecvStatus st = prim.conn->Wait(pseq, hedge, &frame);
      if (st == RecvStatus::kOk) {
        if (frame.type == kReplyType) {
          *reply = std::move(frame.payload);
          return true;
        }
        MarkDead(ctx, s, prim_idx);
        p_pending = false;
      } else if (st != RecvStatus::kTimeout) {
        MarkDead(ctx, s, prim_idx);
        p_pending = false;
      }
    }

    // Phase 2: race the standby against the (slow or dead) primary and
    // take the first valid reply — both hold the same snapshot, so either
    // answer is exact. Each connection has its own reactor (no
    // cross-connection poll), so the race alternates short waits between
    // the two sides; a winner is noticed at worst ~2ms late. When only
    // one side remains pending, its wait spans the rest of the window.
    const std::size_t stand_idx = pick_standby();
    bool s_pending = false;
    std::uint32_t sseq = 0;
    if (stand_idx < g.members.size()) {
      Participant& stand = g.members[stand_idx];
      sseq = stand.conn->NextSeq();
      stand.conn->Expect(sseq, ctx.qid);
      if (stand.conn->Send(type, sseq, ctx.qid, payload.data(),
                           payload.size())) {
        s_pending = true;
        if (res != nullptr) ++res->hedged_evals;
      } else {
        stand.conn->Cancel(sseq);
        MarkDead(ctx, s, stand_idx);
      }
    }

    auto poll_side = [&](std::size_t idx, std::uint32_t seq, bool* pend,
                         int wait_ms) -> bool {
      Frame frame;
      const RecvStatus st = g.members[idx].conn->Wait(seq, wait_ms, &frame);
      if (st == RecvStatus::kOk) {
        if (frame.type == kReplyType) {
          *reply = std::move(frame.payload);
          return true;
        }
        MarkDead(ctx, s, idx);
        *pend = false;
      } else if (st != RecvStatus::kTimeout) {
        MarkDead(ctx, s, idx);
        *pend = false;
      }
      return false;
    };
    while (p_pending || s_pending) {
      const std::int64_t left = attempt_end - NowMs();
      if (left <= 0) break;
      const int slice = left < 2 ? static_cast<int>(left) : 2;
      if (p_pending &&
          poll_side(prim_idx, pseq, &p_pending,
                    s_pending ? slice : static_cast<int>(left))) {
        if (s_pending) g.members[stand_idx].conn->Cancel(sseq);
        return true;
      }
      if (s_pending &&
          poll_side(stand_idx, sseq, &s_pending,
                    p_pending ? slice : static_cast<int>(left))) {
        if (p_pending) g.members[prim_idx].conn->Cancel(pseq);
        return true;
      }
    }
    // Attempt window exhausted with no valid reply from either side:
    // deregister both (late replies become stale) and try again fresh.
    if (p_pending) g.members[prim_idx].conn->Cancel(pseq);
    if (s_pending) g.members[stand_idx].conn->Cancel(sseq);
  }
  // All attempts burned: whatever is still nominally pending has missed
  // every window — treat the participants as unresponsive, exactly as the
  // unreplicated tier treats a worker that exhausts its retries.
  MarkDead(ctx, s, g.primary);
  const std::size_t stand_idx = pick_standby();
  if (stand_idx < g.members.size()) MarkDead(ctx, s, stand_idx);
  return false;
}

int ServeRouter::RemainingMs(std::int64_t deadline_ms) const {
  const std::int64_t left = deadline_ms - NowMs();
  if (left <= 0) return 0;
  const int cap = options_.op_timeout_ms;
  return left < cap ? static_cast<int>(left) : cap;
}

pid_t ServeRouter::worker_pid(std::size_t s) const {
  Group& g = *groups_[s];
  std::lock_guard<std::mutex> lock(g.mu);
  return g.members[g.primary].pid;
}

bool ServeRouter::worker_alive(std::size_t s) const {
  Group& g = *groups_[s];
  std::lock_guard<std::mutex> lock(g.mu);
  for (const Replica& m : g.members) {
    if (m.alive) return true;
  }
  return false;
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

ServeResult ServeRouter::KNearest(std::string_view query, std::size_t k) {
  // Shared world lock: N callers sweep concurrently; mutations (which
  // take it exclusive) never interleave with a sweep.
  std::shared_lock<std::shared_mutex> world(world_mu_);
  return RobustQuery(query, k, /*row=*/nullptr);
}

ServeResult ServeRouter::KNearestWithRow(std::string_view query, std::size_t k,
                                         const std::vector<double>& row) {
  if (row.size() != num_pivots()) {
    throw std::invalid_argument(
        "ServeRouter::KNearestWithRow: row must have num_pivots() entries");
  }
  std::shared_lock<std::shared_mutex> world(world_mu_);
  return RobustQuery(query, k, row.data());
}

bool ServeRouter::FastWorldLocked() const {
  if (world_.base_dead_total != 0) return false;
  for (const std::size_t d : world_.delta_live) {
    if (d != 0) return false;
  }
  for (const auto& g : groups_) {
    std::lock_guard<std::mutex> glock(g->mu);
    for (const Replica& m : g->members) {
      if (!m.alive || m.conn == nullptr || m.conn->failed()) return false;
    }
  }
  return true;
}

void ServeRouter::DriveSweeps(SweepFeed& feed, std::size_t max_concurrent) {
  const std::size_t wave = max_concurrent == 0 ? 16 : max_concurrent;
  const std::size_t shards = shard_count();

  /// One outstanding request leg of a sweep's current phase.
  struct Leg {
    std::size_t s = 0, r = 0;
    std::uint32_t seq = 0;
    Conn* conn = nullptr;
    bool done = false;
    std::vector<char> payload;
  };
  enum class St { kBegin, kEval, kStep, kDone, kBail };
  struct Sweep {
    Sweep(const SweepJob& j, SweepMachine machine)
        : job(j), m(std::move(machine)) {}
    SweepJob job;
    SweepMachine m;
    St st = St::kBegin;
    std::int64_t deadline = 0;
    QueryCtx ctx;
    ServeResult res;
    std::vector<Leg> legs;
    std::int64_t last_progress_ms = 0;
    bool settled = false;  // kDone or kBail, awaiting delivery
  };

  std::list<Sweep> sweeps;
  std::shared_lock<std::shared_mutex> world(world_mu_, std::defer_lock);
  bool fast = false;

  // Per-connection request buffers for the current round; flushed as one
  // write per connection.
  std::vector<Conn*> flush_order;
  std::unordered_map<Conn*, std::vector<char>> outgoing;

  auto enqueue = [&](Sweep& sw, std::size_t s, std::size_t r, FrameType type,
                     const std::vector<char>& payload) {
    const Participant& m = sw.ctx.groups[s].members[r];
    Leg leg;
    leg.s = s;
    leg.r = r;
    leg.conn = m.conn.get();
    leg.seq = m.conn->NextSeq();
    m.conn->Expect(leg.seq, sw.ctx.qid);
    auto& buf = outgoing[leg.conn];
    if (buf.empty()) flush_order.push_back(leg.conn);
    EncodeFrame(&buf, type, leg.seq, sw.ctx.qid, payload.data(),
                payload.size());
    sw.legs.push_back(leg);
  };
  auto enqueue_all = [&](Sweep& sw, FrameType type,
                         const std::vector<char>& payload) {
    sw.legs.clear();
    for (std::size_t s = 0; s < shards; ++s) {
      for (std::size_t r = 0; r < sw.ctx.groups[s].members.size(); ++r) {
        enqueue(sw, s, r, type, payload);
      }
    }
  };
  auto flush = [&] {
    for (Conn* conn : flush_order) {
      auto& buf = outgoing[conn];
      if (!buf.empty()) conn->SendRaw(buf.data(), buf.size());
      buf.clear();
    }
    flush_order.clear();
  };
  // EndSweeps, but riding the next round's flush instead of paying its
  // own write syscall per connection: the kEndSweep frames are
  // fire-and-forget, and the worker's slot table tolerates one round of
  // retirement lag. Every finish/bail is followed by a flush in the same
  // driver iteration, so nothing lingers.
  auto end_sweeps_buffered = [&](const QueryCtx& ctx) {
    for (const GroupCtx& g : ctx.groups) {
      for (const Participant& m : g.members) {
        if (m.conn == nullptr || m.conn->failed()) continue;
        auto& buf = outgoing[m.conn.get()];
        if (buf.empty()) flush_order.push_back(m.conn.get());
        EncodeFrame(&buf, FrameType::kEndSweep, m.conn->NextSeq(), ctx.qid,
                    nullptr, 0);
      }
    }
  };
  auto bail = [&](Sweep& sw) {
    for (const Leg& leg : sw.legs) {
      if (!leg.done) leg.conn->Cancel(leg.seq);
    }
    sw.legs.clear();
    end_sweeps_buffered(sw.ctx);
    sw.st = St::kBail;
    sw.settled = true;
    // A bail usually means a replica died under us: re-gate admission now
    // rather than feeding more sweeps into a world that will bail them.
    fast = FastWorldLocked();
  };
  auto finish = [&](Sweep& sw) {
    sw.m.Finish(&sw.res);
    end_sweeps_buffered(sw.ctx);
    sw.st = St::kDone;
    sw.settled = true;
  };
  // The machine's next candidate goes to its shard's primary as an eval;
  // none left settles the sweep.
  auto advance = [&](Sweep& sw) {
    sw.legs.clear();
    if (sw.m.Next() == kSweepNone) {
      finish(sw);
      return;
    }
    const std::size_t owner = sw.m.cand_shard();
    enqueue(sw, owner, sw.ctx.groups[owner].primary, FrameType::kEval,
            sw.m.EvalPayload());
    sw.st = St::kEval;
  };
  auto start_sweep = [&](Sweep& sw) {
    sw.st = St::kBegin;
    sw.deadline = NowMs() + options_.query_deadline_ms;
    sw.last_progress_ms = NowMs();
    if (sw.m.k() == 0) {
      finish(sw);
      return;
    }
    SnapshotCtx(&sw.ctx);
    // The fast gate held when this wave's world lock was taken, but a
    // replica can die right up to the snapshot; an incomplete snapshot
    // bails to the robust path, which owns failover.
    for (std::size_t s = 0; s < shards; ++s) {
      for (const Participant& m : sw.ctx.groups[s].members) {
        if (!m.alive) {
          bail(sw);
          return;
        }
      }
    }
    enqueue_all(sw, sw.m.begin_type(), sw.m.BeginPayload());
  };

  // Reconciles a completed begin/step round: the primary's reply drives
  // the machine, every standby must byte-agree (the state-machine
  // replication check). Returns false on any malformed or disagreeing
  // reply — the caller bails to the robust path, which evicts properly.
  auto absorb_compacts = [&](Sweep& sw) {
    for (std::size_t s = 0; s < shards; ++s) {
      const Leg* primary = nullptr;
      for (const Leg& leg : sw.legs) {
        if (leg.s == s && leg.r == sw.ctx.groups[s].primary) primary = &leg;
      }
      if (primary == nullptr) return false;
      for (const Leg& leg : sw.legs) {
        if (leg.s == s && &leg != primary && leg.payload != primary->payload) {
          return false;
        }
      }
      const bool ok = sw.st == St::kBegin
                          ? sw.m.AbsorbBegin(s, primary->payload)
                          : sw.m.AbsorbStep(s, primary->payload);
      if (!ok) return false;
    }
    return true;
  };

  auto deliver_settled = [&] {
    for (auto it = sweeps.begin(); it != sweeps.end();) {
      if (it->settled) {
        feed.Deliver(it->job.tag, std::move(it->res), it->st == St::kBail);
        it = sweeps.erase(it);
      } else {
        ++it;
      }
    }
  };

  for (;;) {
    if (sweeps.empty() && feed.Finished()) break;

    if (!world.owns_lock()) {
      world.lock();
      MaybeRespawn();
      fast = FastWorldLocked();
    }
    // A writer announced itself: stop admitting so the wave drains and
    // the shared hold can be released below. In read-only steady state
    // this branch never fires and the driver keeps the lock indefinitely
    // — cycling it on a timer would decay the wave to nothing once per
    // cycle for no one's benefit.
    const bool writer_waiting =
        writers_waiting_.load(std::memory_order_relaxed) > 0;

    // Admit until the wave is full (or, when the world is not fast-path
    // eligible, hand every queued job straight back for a robust rerun on
    // its caller's thread — serializing robust queries through this one
    // thread would be a step backwards).
    if (!writer_waiting) {
      SweepJob job;
      while (sweeps.size() < wave && feed.Next(&job)) {
        if (!fast) {
          feed.Deliver(job.tag, ServeResult(), /*bailed=*/true);
          continue;
        }
        sweeps.emplace_back(
            job, SweepMachine(shape_, world_, job.query, job.k, job.row));
        start_sweep(sweeps.back());
      }
    }
    flush();
    deliver_settled();

    if (sweeps.empty()) {
      // Nothing in flight: give the world back (a writer may be waiting
      // on it) and park for new work. The deliberate gap after a
      // writer-forced drain lets the blocked Insert/Remove actually win
      // the lock before we re-take it.
      world.unlock();
      if (writer_waiting) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
      if (feed.Finished()) break;
      const int wfd = feed.wake_fd();
      if (wfd >= 0) {
        struct pollfd pfd{wfd, POLLIN, 0};
        ::poll(&pfd, 1, 50);
        if ((pfd.revents & POLLIN) != 0) {
          char buf[256];
          while (::read(wfd, buf, sizeof(buf)) > 0) {
          }
        }
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      continue;
    }

    // Park: one poll across every connection that still owes a reply,
    // plus the feed's wake fd so a fresh admission interrupts the park.
    // Readiness results then drive the scan — only a flagged connection
    // is worth a read syscall. The short cap bounds the stall if some
    // other reader (a robust rerun, the control plane) drains our frames
    // between the scan below and the next park.
    std::vector<struct pollfd> pfds;
    for (const Sweep& sw : sweeps) {
      for (const Leg& leg : sw.legs) {
        if (leg.done) continue;
        bool seen = false;
        for (const struct pollfd& p : pfds) {
          if (p.fd == leg.conn->fd()) seen = true;
        }
        if (!seen) pfds.push_back({leg.conn->fd(), POLLIN, 0});
      }
    }
    const std::size_t conn_pfds = pfds.size();
    const int wfd = feed.wake_fd();
    if (wfd >= 0 && !writer_waiting && sweeps.size() < wave &&
        !feed.Finished()) {
      pfds.push_back({wfd, POLLIN, 0});
    }
    if (!pfds.empty()) {
      ::poll(pfds.data(), pfds.size(), 20);
    }
    if (pfds.size() > conn_pfds && (pfds.back().revents & POLLIN) != 0) {
      char buf[256];
      while (::read(wfd, buf, sizeof(buf)) > 0) {
      }
    }
    const auto readable = [&](Conn* c) {
      for (std::size_t i = 0; i < conn_pfds; ++i) {
        if (pfds[i].fd == c->fd()) {
          return (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0;
        }
      }
      return false;
    };

    // Scan to quiescence: TryWait collects replies some reader already
    // drained for free, each readable connection is read at most once
    // per park (one recv empties it), and newly issued requests stay
    // buffered until the flush below — their replies cannot land
    // mid-scan, so the rescans are pure flag checks and the loop
    // terminates once every arrived reply is absorbed.
    std::vector<Conn*> probed;
    const auto conn_probed = [&](Conn* c) {
      for (Conn* d : probed) {
        if (d == c) return true;
      }
      return false;
    };
    bool progress = true;
    while (progress) {
      progress = false;
      for (Sweep& sw : sweeps) {
        if (sw.st != St::kBegin && sw.st != St::kEval && sw.st != St::kStep) {
          continue;
        }
        bool all_done = true;
        bool dead = false;
        for (Leg& leg : sw.legs) {
          if (leg.done) continue;
          Frame f;
          RecvStatus st = leg.conn->TryWait(leg.seq, &f);
          if (st == RecvStatus::kTimeout && readable(leg.conn) &&
              !conn_probed(leg.conn)) {
            probed.push_back(leg.conn);
            st = leg.conn->Wait(leg.seq, 0, &f);
          }
          if (st == RecvStatus::kOk) {
            if (f.type != kReplyType) {
              dead = true;
              break;
            }
            leg.payload = std::move(f.payload);
            leg.done = true;
            // A probe here may have drained replies for sweeps scanned
            // earlier in this pass; one more (syscall-free) pass picks
            // those up rather than stalling them into the next park.
            progress = true;
          } else if (st == RecvStatus::kClosed) {
            dead = true;
            break;
          } else {
            all_done = false;
          }
        }
        if (dead) {
          bail(sw);
          progress = true;
          continue;
        }
        if (!all_done) {
          const std::int64_t now = NowMs();
          if (now - sw.last_progress_ms >
                  static_cast<std::int64_t>(options_.op_timeout_ms) ||
              now >= sw.deadline) {
            bail(sw);
            progress = true;
          }
          continue;
        }

        // Phase complete: absorb the replies and issue the next round.
        progress = true;
        sw.last_progress_ms = NowMs();
        if (sw.st == St::kBegin || sw.st == St::kStep) {
          if (!absorb_compacts(sw)) {
            bail(sw);
            continue;
          }
          advance(sw);
        } else {  // kEval
          if (!sw.m.AbsorbEvalReply(sw.legs[0].payload)) {
            bail(sw);
            continue;
          }
          enqueue_all(sw, sw.m.step_type(), sw.m.StepPayload());
          sw.st = St::kStep;
        }
      }
    }
    flush();
    deliver_settled();
  }
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
      if (!SendRecv(ctx, s, r, FrameType::kPing, {}, &reply,
                    options_.op_timeout_ms, /*retryable=*/true,
                    /*deadline_ms=*/-1)) {
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
      std::vector<char> reply;
      if (ControlSendRecv(s, r, FrameType::kPing, {}, &reply,
                          /*retryable=*/true)) {
        // A fresh fork maps only the immutable snapshot; replay the
        // shard's mutation journal so it rejoins at the group's current
        // delta/tombstone state (ops are idempotent by id, so a partial
        // previous life is harmless).
        if (ReplayMutations(s, r)) ++revived;
      }
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
  ++world_.delta_live[owner];
  MutationOp op;
  op.insert = true;
  op.id = id;
  op.s.assign(s);
  // Journal before replicating: even if the whole group is down right now,
  // the next respawn replays the journal, so the id is durably assigned
  // from the router's point of view either way.
  shard_ops_[owner].push_back(std::move(op));
  ReplicateMutation(owner, shard_ops_[owner].back());
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
    std::vector<std::uint64_t>& tombs = world_.base_tombs;
    if (tombs.empty()) tombs.assign(TombstoneWords(n_), 0);
    if (TestTombstone(tombs.data(), id)) return false;
    SetTombstone(tombs.data(), id);
    owner = shape_.ShardOf(id);
    ++world_.shard_dead[owner];
    ++world_.base_dead_total;
  } else if (id < next_insert_id_) {
    const auto it =
        std::lower_bound(dead_delta_ids_.begin(), dead_delta_ids_.end(), id);
    if (it != dead_delta_ids_.end() && *it == id) return false;
    dead_delta_ids_.insert(it, id);
    owner = static_cast<std::size_t>((id - n_) % shard_count());
    --world_.delta_live[owner];
  } else {
    return false;
  }
  MutationOp op;
  op.id = id;
  shard_ops_[owner].push_back(std::move(op));
  ReplicateMutation(owner, shard_ops_[owner].back());
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

void ServeRouter::ReplicateMutation(std::size_t owner, const MutationOp& op) {
  // The sweeps' replication step on the control plane: every live member
  // applies the op, replies are byte-checked (dedup-stable, so retries
  // after lost replies still agree), and a member that fails is dead — to
  // be replayed at respawn, as is a group that fails whole. Caller holds
  // respawn_mu_, so membership is stable across the exchange.
  QueryCtx ctx = ControlCtx(owner);
  Replicate(ctx, {owner}, op.type(), op.Payload(), /*retryable=*/true,
            options_.op_timeout_ms, /*deadline_ms=*/-1, /*res=*/nullptr);
}

bool ServeRouter::ReplayMutations(std::size_t s, std::size_t r) {
  for (const MutationOp& op : shard_ops_[s]) {
    if (!ControlSendRecv(s, r, op.type(), op.Payload(), /*reply=*/nullptr,
                         /*retryable=*/true)) {
      return false;  // ControlSendRecv already marked the replica dead
    }
  }
  return true;
}

// The distributed form of the mutable tier's delta phase: everything
// inserted since the snapshot lives in the workers' in-memory deltas, and
// every shard holding live delta entries runs one bounded scan, capped by
// the base sweep's incumbents.
void ServeRouter::DeltaPhase(QueryCtx& ctx, SweepMachine& m,
                             std::int64_t deadline, ServeResult* res) {
  for (std::size_t s = 0; s < shard_count(); ++s) {
    if (!m.HasDelta(s)) continue;
    if (RemainingMs(deadline) == 0) {
      m.Drop(s);
      continue;
    }
    std::vector<char> reply;
    if (!GroupEval(ctx, s, FrameType::kDeltaScan, m.DeltaPayload(), &reply,
                   deadline, res)) {
      m.Drop(s);
    } else if (!m.AbsorbDelta(s, reply)) {
      MarkDead(ctx, s, ctx.groups[s].primary);
      m.Drop(s);
    }
  }
}

// The distributed `ShardedLaesa::Sweep` (lazy, `row` null) or
// `ShardedLaesa::SweepWithRow`: the machine makes identical decisions on
// identical values in identical order — only the per-shard kernel passes
// run in the workers (on every live member of each replica group). This
// executor moves the machine's requests and replies with retries,
// failover, hedging and partial flagging. Read side by side with
// sharded_laesa.cc.
ServeResult ServeRouter::RobustQuery(std::string_view query, std::size_t k,
                                     const double* row) {
  MaybeRespawn();
  QueryCtx ctx;
  SnapshotCtx(&ctx);
  ServeResult res;
  SweepMachine m(shape_, world_, query, k, row);
  if (m.k() > 0) {
    const std::int64_t deadline = NowMs() + options_.query_deadline_ms;
    for (std::size_t s = 0; s < shard_count(); ++s) {
      if (!ctx.groups[s].AnyAlive()) m.Drop(s);
    }
    Broadcast(ctx, m, /*begin=*/true, deadline, &res);
    while (m.Next() != kSweepNone) {
      if (RemainingMs(deadline) == 0) {
        // Deadline: degrade to the incumbents.
        m.Expire();
        break;
      }
      const std::int32_t rank = m.router_pivot();
      if (rank >= 0) {
        // Pivot strings live in the manifest: the visit evaluation runs
        // router-side, like the pivot stage.
        m.AbsorbEval(
            distance_->DistanceBounded(query, pivot_strings_[rank], m.cap()));
      } else {
        const std::size_t owner = m.cand_shard();
        std::vector<char> reply;
        bool ok = GroupEval(ctx, owner, FrameType::kEval, m.EvalPayload(),
                            &reply, deadline, &res);
        if (ok && !m.AbsorbEvalReply(reply)) {
          MarkDead(ctx, owner, ctx.groups[owner].primary);
          ok = false;
        }
        if (!ok) {
          // The candidate's whole group is gone: drop the shard and pick
          // the best survivor from the remaining shards' last passes. No
          // visit happened, so no counters move.
          m.Drop(owner);
          continue;
        }
      }
      // Scatter the visit pass to every live replica. Mutating — never
      // retried: a member that misses the timeout here is dead on the
      // spot, and only a whole lost group degrades the shard.
      Broadcast(ctx, m, /*begin=*/false, deadline, &res);
    }
    DeltaPhase(ctx, m, deadline, &res);
  }
  m.Finish(&res);
  EndSweeps(ctx);
  return res;
}

}  // namespace cned
