#include "serve/worker.h"

#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/fault.h"
#include "serve/frame.h"
#include "serve/replica.h"
#include "serve/wire.h"

namespace cned {
namespace {

/// Request class for fault matching (serve/fault.h).
const char* OpClass(FrameType type) {
  switch (type) {
    case FrameType::kPing:
      return "ping";
    case FrameType::kBeginRow:
      return "begin";
    case FrameType::kEval:
      return "eval";
    case FrameType::kStep:
      return "step";
    case FrameType::kInsert:
      return "insert";
    case FrameType::kRemove:
      return "remove";
    case FrameType::kDeltaScan:
      return "scan";
    default:
      return "other";
  }
}

void SleepMs(std::uint64_t ms) {
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(ms / 1000);
  ts.tv_nsec = static_cast<long>((ms % 1000) * 1000000);
  while (nanosleep(&ts, &ts) != 0) {
  }
}

/// Flush the reply outbox past this size even with more requests pending,
/// bounding worker memory under a slow router.
constexpr std::size_t kFlushBytes = std::size_t{256} * 1024;

void EncodeError(std::vector<char>* out, std::uint32_t seq, std::uint32_t qid,
                 const std::string& message, bool corrupt) {
  PayloadWriter w;
  w.Str(message);
  EncodeFrame(out, FrameType::kError, seq, qid, w.buf.data(), w.buf.size(),
              corrupt);
}

}  // namespace

// The worker is a single-threaded drain loop: read whatever the socket
// holds, process EVERY complete buffered request, then flush all replies
// with one send. Under one in-flight query this is byte-for-byte the old
// one-frame-at-a-time loop; under the router's multiplexed load it is the
// serving tier's throughput lever — N interleaved queries cost one worker
// wakeup and two syscalls per batch instead of N of each. Sweep state is
// per-query-id (ShardReplica slots), so interleaved sweeps can't see each
// other. A crash fault inside a batch loses the batch's unflushed replies
// too — exactly the kill -9 semantics the router already handles.
int RunShardWorker(int fd, const WorkerConfig& config) {
  FaultInjector injector(FaultSpec::Parse(config.fault_spec),
                         config.shard_id, config.replica_id);

  // Snapshot load failures are reported on the first request rather than
  // silently dying: keep the error and answer every request with it.
  std::unique_ptr<ShardReplica> replica;
  std::string load_error;
  try {
    replica = std::make_unique<ShardReplica>(
        config.store_path, config.index_path, config.distance);
  } catch (const std::exception& e) {
    load_error = e.what();
  }

  FrameBuffer inbuf;
  std::vector<char> outbox;
  char chunk[64 * 1024];
  for (;;) {
    Frame req;
    const FrameBuffer::Next next = inbuf.Pop(&req);
    if (next == FrameBuffer::Next::kMalformed) return 1;
    if (next == FrameBuffer::Next::kNeedMore) {
      // Out of complete requests: flush everything we owe before blocking,
      // or the router would wait on replies we are sitting on.
      if (!outbox.empty()) {
        if (!SendBytes(fd, outbox.data(), outbox.size())) return 1;
        outbox.clear();
      }
      const ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
      if (r == 0) return 0;  // clean EOF: router closed the connection
      if (r < 0) {
        if (errno == EINTR) continue;
        return 1;
      }
      inbuf.Append(chunk, static_cast<std::size_t>(r));
      continue;
    }
    const FrameType type = static_cast<FrameType>(req.type);

    if (type == FrameType::kEndSweep) {
      // Fire-and-forget cleanup: no reply, and exempt from fault injection
      // — it is not a replicated state-machine op, so it must not consume
      // a deterministic schedule's nth/every counts.
      if (replica != nullptr) replica->EndSweep(req.qid);
      continue;
    }

    const FaultInjector::Action action = injector.OnRequest(OpClass(type));
    if (action.crash) _exit(137);  // the kill -9 stand-in
    if (action.delay_ms > 0) SleepMs(action.delay_ms);
    if (action.drop) continue;

    if (type == FrameType::kShutdown) {
      EncodeFrame(&outbox, FrameType::kReply, req.seq, req.qid, nullptr, 0);
      SendBytes(fd, outbox.data(), outbox.size());
      return 0;
    }
    if (replica == nullptr) {
      EncodeError(&outbox, req.seq, req.qid,
                  "shard snapshot load failed: " + load_error, action.corrupt);
      continue;
    }

    PayloadWriter reply;
    bool ok = true;
    std::string error;
    try {
      PayloadReader r(req.payload);
      switch (type) {
        case FrameType::kPing: {
          reply.U64(replica->shard_id());
          reply.U64(config.replica_id);
          break;
        }
        case FrameType::kBeginRow: {
          const std::string query = r.Str();
          const double seed_bound = r.F64();
          const std::uint64_t count = r.U64();
          // Read while the payload lasts, so a crafted count sizes nothing;
          // the replica checks the rows against its table.
          std::vector<PivotRow> rows;
          for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
            const std::uint32_t rank = r.U32();
            const double d = r.F64();
            rows.push_back({rank, d});
          }
          if (!r.Done()) throw std::runtime_error("malformed BeginRow");
          const SweepCompactResult pass =
              replica->BeginRow(req.qid, query, rows, seed_bound);
          reply.U64(replica->base_dead());
          EncodeCompact(reply, pass);
          break;
        }
        case FrameType::kEval: {
          const std::uint64_t id = r.U64();
          const double cap = r.F64();
          if (!r.Done()) throw std::runtime_error("malformed Eval");
          reply.F64(replica->Eval(req.qid, id, cap));
          break;
        }
        case FrameType::kStep: {
          const std::uint32_t skip = r.U32();
          const double bound = r.F64();
          if (!r.Done()) throw std::runtime_error("malformed Step");
          EncodeCompact(reply, replica->Step(req.qid, skip, bound));
          break;
        }
        case FrameType::kInsert: {
          const std::uint64_t id = r.U64();
          const std::string s = r.Str();
          if (!r.Done()) throw std::runtime_error("malformed Insert");
          replica->Insert(id, s);
          // Dedup-stable reply: the delta count after this id is applied is
          // the same whether this delivery was first or a retry, so a lost
          // reply re-sent still byte-agrees across the group.
          reply.U64(replica->delta_count());
          break;
        }
        case FrameType::kRemove: {
          const std::uint64_t id = r.U64();
          if (!r.Done()) throw std::runtime_error("malformed Remove");
          replica->Remove(id);
          // Dedup-stable for the same reason as kInsert.
          reply.U64(replica->total_dead());
          break;
        }
        case FrameType::kDeltaScan: {
          const std::string query = r.Str();
          const double cap0 = r.F64();
          const std::uint64_t k = r.U64();
          if (!r.Done()) throw std::runtime_error("malformed DeltaScan");
          std::vector<NeighborResult> hits;
          std::uint64_t comps = 0;
          std::uint64_t abandons = 0;
          replica->DeltaScan(query, cap0, static_cast<std::size_t>(k), &hits,
                             &comps, &abandons);
          reply.U64(hits.size());
          for (const NeighborResult& h : hits) {
            reply.U64(h.index);
            reply.F64(h.distance);
          }
          reply.U64(comps);
          reply.U64(abandons);
          break;
        }
        default: {
          throw std::runtime_error("unexpected frame type " +
                                   std::to_string(req.type));
        }
      }
    } catch (const std::exception& e) {
      ok = false;
      error = e.what();
    }

    // A mangled reply is byte-wrong but CRC-valid: the frame layer cannot
    // catch it, only the router's replica agreement check can.
    if (action.mangle && !reply.buf.empty()) reply.buf[0] ^= 0x01;
    if (ok) {
      EncodeFrame(&outbox, FrameType::kReply, req.seq, req.qid,
                  reply.buf.data(), reply.buf.size(), action.corrupt);
    } else {
      EncodeError(&outbox, req.seq, req.qid, error, action.corrupt);
    }
    if (outbox.size() >= kFlushBytes) {
      if (!SendBytes(fd, outbox.data(), outbox.size())) return 1;
      outbox.clear();
    }
  }
}

}  // namespace cned
