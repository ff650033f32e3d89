// Wire-level contracts of the serving tier: checksummed framing round
// trips, corruption and truncation surface as kMalformed (never a hang or
// a garbage decode), receives are deadline-bounded, the payload codec is
// strict about short reads and trailing bytes, the CNED_FAULT grammar
// parses deterministically, the connection reactor wakes a waiter whose
// reply another thread drained, and a worker answers the reserved frame
// type 6 with kError.

#include "serve/frame.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <poll.h>
#include <stdlib.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datasets/prototype_store.h"
#include "distances/registry.h"
#include "search/laesa.h"
#include "serve/fault.h"
#include "serve/reactor.h"
#include "serve/shard_snapshot.h"
#include "serve/worker.h"

namespace cned {
namespace {

struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() { EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    if (fds[0] >= 0) close(fds[0]);
    if (fds[1] >= 0) close(fds[1]);
  }
  int fds[2] = {-1, -1};
};

TEST(ServeFrameTest, RoundTripsPayloadTypeSequenceAndQueryId) {
  SocketPair sp;
  PayloadWriter w;
  w.U32(7);
  w.U64(123456789012345ull);
  w.F64(2.5);
  w.Str("hello frame");
  ASSERT_TRUE(SendFrame(sp.fds[0], FrameType::kEval, 99, 1234, w.buf.data(),
                        w.buf.size()));
  Frame f;
  ASSERT_EQ(RecvFrame(sp.fds[1], &f, 1000), RecvStatus::kOk);
  EXPECT_EQ(f.type, static_cast<std::uint32_t>(FrameType::kEval));
  EXPECT_EQ(f.seq, 99u);
  EXPECT_EQ(f.qid, 1234u);
  PayloadReader r(f.payload);
  EXPECT_EQ(r.U32(), 7u);
  EXPECT_EQ(r.U64(), 123456789012345ull);
  EXPECT_EQ(r.F64(), 2.5);
  EXPECT_EQ(r.Str(), "hello frame");
  EXPECT_TRUE(r.Done());
}

TEST(ServeFrameTest, EmptyPayloadRoundTrips) {
  SocketPair sp;
  ASSERT_TRUE(SendFrame(sp.fds[0], FrameType::kPing, 1, 0, nullptr, 0));
  Frame f;
  ASSERT_EQ(RecvFrame(sp.fds[1], &f, 1000), RecvStatus::kOk);
  EXPECT_EQ(f.type, static_cast<std::uint32_t>(FrameType::kPing));
  EXPECT_EQ(f.qid, 0u);
  EXPECT_TRUE(f.payload.empty());
}

TEST(ServeFrameTest, CorruptCrcIsMalformed) {
  SocketPair sp;
  const char payload[] = "payload bytes";
  ASSERT_TRUE(SendFrame(sp.fds[0], FrameType::kReply, 5, 0, payload,
                        sizeof(payload), /*corrupt_crc=*/true));
  Frame f;
  EXPECT_EQ(RecvFrame(sp.fds[1], &f, 1000), RecvStatus::kMalformed);
}

TEST(ServeFrameTest, OversizedLengthAndUnknownTypeAreMalformed) {
  {
    // Header whose length field claims > kMaxFramePayload.
    SocketPair sp;
    std::uint32_t header[5] = {kMaxFramePayload + 1,
                               static_cast<std::uint32_t>(FrameType::kReply),
                               1, 0, 0};
    ASSERT_EQ(send(sp.fds[0], header, sizeof(header), 0),
              static_cast<ssize_t>(sizeof(header)));
    Frame f;
    EXPECT_EQ(RecvFrame(sp.fds[1], &f, 1000), RecvStatus::kMalformed);
  }
  {
    // Type outside the known range.
    SocketPair sp;
    std::uint32_t header[5] = {0, kMaxFrameType + 1, 1, 0, 0};
    ASSERT_EQ(send(sp.fds[0], header, sizeof(header), 0),
              static_cast<ssize_t>(sizeof(header)));
    Frame f;
    EXPECT_EQ(RecvFrame(sp.fds[1], &f, 1000), RecvStatus::kMalformed);
  }
}

TEST(ServeFrameTest, RecvTimesOutInsteadOfHanging) {
  SocketPair sp;
  Frame f;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(RecvFrame(sp.fds[1], &f, 50), RecvStatus::kTimeout);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_GE(elapsed, 45);
  EXPECT_LT(elapsed, 5000);
}

TEST(ServeFrameTest, TruncatedFrameThenCloseIsNotOk) {
  SocketPair sp;
  // Half a header, then EOF: the receive must fail (closed), not decode.
  std::uint32_t half[2] = {16, static_cast<std::uint32_t>(FrameType::kReply)};
  ASSERT_EQ(send(sp.fds[0], half, sizeof(half), 0),
            static_cast<ssize_t>(sizeof(half)));
  close(sp.fds[0]);
  sp.fds[0] = -1;
  Frame f;
  EXPECT_EQ(RecvFrame(sp.fds[1], &f, 1000), RecvStatus::kClosed);
}

// Regression: the remaining-time-to-ms conversion used to truncate, so a
// sub-millisecond budget became poll(0)=timeout even with a complete frame
// already sitting in the socket buffer. A zero/near-zero timeout must still
// drain buffered data — it means "take what's there", not "fail fast".
TEST(ServeFrameTest, ZeroTimeoutStillDrainsBufferedFrame) {
  SocketPair sp;
  const char payload[] = "already buffered";
  ASSERT_TRUE(
      SendFrame(sp.fds[0], FrameType::kReply, 7, 3, payload, sizeof(payload)));
  Frame f;
  ASSERT_EQ(RecvFrame(sp.fds[1], &f, 0), RecvStatus::kOk);
  EXPECT_EQ(f.seq, 7u);
  EXPECT_EQ(f.qid, 3u);

  // And with nothing buffered, a zero timeout fails fast, not a hang.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(RecvFrame(sp.fds[1], &f, 0), RecvStatus::kTimeout);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_LT(elapsed, 1000);
}

TEST(ServeFrameBufferTest, PopsMultipleFramesFromOneAppend) {
  std::vector<char> bytes;
  PayloadWriter w1;
  w1.U64(11);
  PayloadWriter w2;
  w2.Str("second");
  ASSERT_TRUE(EncodeFrame(&bytes, FrameType::kReply, 1, 100, w1.buf.data(),
                          w1.buf.size()));
  ASSERT_TRUE(EncodeFrame(&bytes, FrameType::kError, 2, 200, w2.buf.data(),
                          w2.buf.size()));
  ASSERT_TRUE(EncodeFrame(&bytes, FrameType::kEndSweep, 3, 300, nullptr, 0));

  FrameBuffer fb;
  fb.Append(bytes.data(), bytes.size());
  Frame f;
  ASSERT_EQ(fb.Pop(&f), FrameBuffer::Next::kFrame);
  EXPECT_EQ(f.type, static_cast<std::uint32_t>(FrameType::kReply));
  EXPECT_EQ(f.seq, 1u);
  EXPECT_EQ(f.qid, 100u);
  PayloadReader r1(f.payload);
  EXPECT_EQ(r1.U64(), 11u);
  ASSERT_EQ(fb.Pop(&f), FrameBuffer::Next::kFrame);
  EXPECT_EQ(f.qid, 200u);
  PayloadReader r2(f.payload);
  EXPECT_EQ(r2.Str(), "second");
  ASSERT_EQ(fb.Pop(&f), FrameBuffer::Next::kFrame);
  EXPECT_EQ(f.type, static_cast<std::uint32_t>(FrameType::kEndSweep));
  EXPECT_TRUE(f.payload.empty());
  EXPECT_EQ(fb.Pop(&f), FrameBuffer::Next::kNeedMore);
  EXPECT_EQ(fb.buffered_bytes(), 0u);
}

TEST(ServeFrameBufferTest, PartialFrameWaitsAcrossAppends) {
  std::vector<char> bytes;
  PayloadWriter w;
  w.Str("split across reads");
  ASSERT_TRUE(
      EncodeFrame(&bytes, FrameType::kEval, 9, 42, w.buf.data(), w.buf.size()));

  FrameBuffer fb;
  Frame f;
  // Feed one byte at a time: never a false frame, never a lost byte.
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    fb.Append(&bytes[i], 1);
    ASSERT_EQ(fb.Pop(&f), FrameBuffer::Next::kNeedMore) << "at byte " << i;
  }
  fb.Append(&bytes[bytes.size() - 1], 1);
  ASSERT_EQ(fb.Pop(&f), FrameBuffer::Next::kFrame);
  EXPECT_EQ(f.seq, 9u);
  EXPECT_EQ(f.qid, 42u);
  PayloadReader r(f.payload);
  EXPECT_EQ(r.Str(), "split across reads");
}

TEST(ServeFrameBufferTest, MalformedPoisonsTheStream) {
  FrameBuffer fb;
  std::uint32_t header[5] = {0, kMaxFrameType + 1, 1, 0, 0};
  fb.Append(header, sizeof(header));
  Frame f;
  EXPECT_EQ(fb.Pop(&f), FrameBuffer::Next::kMalformed);
  // A valid frame appended afterwards must NOT resynchronise the stream.
  std::vector<char> good;
  ASSERT_TRUE(EncodeFrame(&good, FrameType::kPing, 1, 0, nullptr, 0));
  fb.Append(good.data(), good.size());
  EXPECT_EQ(fb.Pop(&f), FrameBuffer::Next::kMalformed);
}

TEST(ServeFrameBufferTest, CrcMismatchIsMalformed) {
  std::vector<char> bytes;
  const char payload[] = "mangle me";
  ASSERT_TRUE(EncodeFrame(&bytes, FrameType::kReply, 1, 1, payload,
                          sizeof(payload), /*corrupt_crc=*/true));
  FrameBuffer fb;
  fb.Append(bytes.data(), bytes.size());
  Frame f;
  EXPECT_EQ(fb.Pop(&f), FrameBuffer::Next::kMalformed);
}

TEST(ServeFrameTest, ClosedPeerIsDetected) {
  SocketPair sp;
  close(sp.fds[0]);
  sp.fds[0] = -1;
  Frame f;
  EXPECT_EQ(RecvFrame(sp.fds[1], &f, 1000), RecvStatus::kClosed);
}

TEST(ServeFrameTest, PayloadReaderRejectsShortAndTrailingBytes) {
  PayloadWriter w;
  w.U32(1);
  w.F64(3.5);
  {
    // Short read: asking for more than is there fails sticky.
    PayloadReader r(w.buf.data(), w.buf.size());
    r.U32();
    r.F64();
    EXPECT_TRUE(r.Done());
    EXPECT_EQ(r.U64(), 0u);
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.Done());
  }
  {
    // Trailing garbage is as malformed as a short read.
    PayloadReader r(w.buf.data(), w.buf.size());
    r.U32();
    EXPECT_TRUE(r.ok());
    EXPECT_FALSE(r.Done());
  }
  {
    // A string whose length prefix overruns the payload.
    PayloadWriter bad;
    bad.U32(1000);  // claims 1000 bytes, none follow
    PayloadReader r(bad.buf.data(), bad.buf.size());
    EXPECT_EQ(r.Str(), "");
    EXPECT_FALSE(r.ok());
  }
}

TEST(ServeFaultTest, ParsesFullGrammar) {
  const FaultSpec spec = FaultSpec::Parse(
      "crash:shard=1,op=begin,nth=3|delay:op=eval,every=2,ms=50|drop:|"
      "corrupt:shard=0");
  ASSERT_EQ(spec.directives.size(), 4u);
  EXPECT_EQ(spec.directives[0].kind, FaultDirective::Kind::kCrash);
  EXPECT_EQ(spec.directives[0].shard, 1);
  EXPECT_EQ(spec.directives[0].op, "begin");
  EXPECT_EQ(spec.directives[0].nth, 3u);
  EXPECT_EQ(spec.directives[1].kind, FaultDirective::Kind::kDelay);
  EXPECT_EQ(spec.directives[1].every, 2u);
  EXPECT_EQ(spec.directives[1].ms, 50u);
  EXPECT_EQ(spec.directives[1].shard, -1);
  EXPECT_EQ(spec.directives[2].kind, FaultDirective::Kind::kDrop);
  EXPECT_EQ(spec.directives[3].kind, FaultDirective::Kind::kCorrupt);
  EXPECT_EQ(spec.directives[3].shard, 0);
  EXPECT_TRUE(FaultSpec::Parse("").empty());
}

// Every request class the worker counts is a name a directive can target,
// and each names exactly the frame type the worker counts under it.
TEST(ServeFaultTest, ParsesEveryOpTheWorkerCounts) {
  const std::pair<const char*, FrameType> ops[] = {
      {"ping", FrameType::kPing},     {"begin", FrameType::kBeginRow},
      {"eval", FrameType::kEval},     {"insert", FrameType::kInsert},
      {"remove", FrameType::kRemove}, {"scan", FrameType::kDeltaScan},
  };
  for (const auto& [name, type] : ops) {
    const FaultSpec spec =
        FaultSpec::Parse(std::string("crash:nth=1,op=") + name);
    ASSERT_EQ(spec.directives.size(), 1u) << name;
    EXPECT_EQ(spec.directives[0].op, name);
    EXPECT_STREQ(FaultOpName(type), name);
    FaultInjector inj(spec, /*shard=*/0);
    EXPECT_TRUE(inj.OnRequest(FaultOpName(type)).crash) << name;
  }
  // Types outside the table count as "other", which no op= names.
  EXPECT_STREQ(FaultOpName(FrameType::kShutdown), "other");
  EXPECT_STREQ(FaultOpName(static_cast<FrameType>(5)), "other");
  EXPECT_THROW(FaultSpec::Parse("crash:op=other"), std::invalid_argument);
}

TEST(ServeFaultTest, RejectsUnknownKindsKeysOpsAndValues) {
  EXPECT_THROW(FaultSpec::Parse("explode:shard=1"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::Parse("crash:when=now"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::Parse("crash:op=query"), std::invalid_argument);
  // No request is a step any more: a stale directive must fail loudly
  // rather than never fire.
  EXPECT_THROW(FaultSpec::Parse("crash:op=step"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::Parse("delay:ms=abc"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::Parse("crash:shard="), std::invalid_argument);
}

TEST(ServeFaultTest, NthFiresExactlyOnceAndCountsPerDirective) {
  FaultInjector inj(FaultSpec::Parse("crash:op=eval,nth=3"), /*shard=*/0);
  EXPECT_FALSE(inj.OnRequest("eval").crash);
  EXPECT_FALSE(inj.OnRequest("begin").crash);  // non-matching: no count
  EXPECT_FALSE(inj.OnRequest("eval").crash);
  EXPECT_TRUE(inj.OnRequest("eval").crash);  // 3rd matching request
  EXPECT_FALSE(inj.OnRequest("eval").crash);
}

TEST(ServeFaultTest, EveryFiresPeriodicallyAndShardFilters) {
  FaultInjector hit(FaultSpec::Parse("delay:shard=2,every=2,ms=7"),
                    /*shard=*/2);
  EXPECT_EQ(hit.OnRequest("eval").delay_ms, 0u);
  EXPECT_EQ(hit.OnRequest("eval").delay_ms, 7u);
  EXPECT_EQ(hit.OnRequest("eval").delay_ms, 0u);
  EXPECT_EQ(hit.OnRequest("eval").delay_ms, 7u);

  FaultInjector miss(FaultSpec::Parse("delay:shard=2,every=1,ms=7"),
                     /*shard=*/1);
  EXPECT_EQ(miss.OnRequest("eval").delay_ms, 0u);

  // No nth/every: fires on every match.
  FaultInjector always(FaultSpec::Parse("corrupt:op=eval"), /*shard=*/0);
  EXPECT_TRUE(always.OnRequest("eval").corrupt);
  EXPECT_TRUE(always.OnRequest("eval").corrupt);
  EXPECT_FALSE(always.OnRequest("begin").corrupt);
}

TEST(ServeFaultTest, ReplicaSelectorTargetsOneGroupMember) {
  const FaultSpec spec = FaultSpec::Parse("crash:op=begin,nth=1,replica=0");
  ASSERT_EQ(spec.directives.size(), 1u);
  EXPECT_EQ(spec.directives[0].replica, 0);

  // Same spec, same shard, different group ordinal: only replica 0 fires.
  FaultInjector primary(spec, /*shard=*/1, /*replica=*/0);
  FaultInjector standby(spec, /*shard=*/1, /*replica=*/1);
  EXPECT_TRUE(primary.OnRequest("begin").crash);
  EXPECT_FALSE(standby.OnRequest("begin").crash);

  // No replica key: -1, fires on every member (whole-group faults).
  const FaultSpec all = FaultSpec::Parse("crash:op=begin,nth=1");
  EXPECT_EQ(all.directives[0].replica, -1);
  FaultInjector m0(all, /*shard=*/0, /*replica=*/0);
  FaultInjector m1(all, /*shard=*/0, /*replica=*/1);
  EXPECT_TRUE(m0.OnRequest("begin").crash);
  EXPECT_TRUE(m1.OnRequest("begin").crash);

  EXPECT_THROW(FaultSpec::Parse("crash:replica="), std::invalid_argument);
}

TEST(ServeFaultTest, MangleKindFlagsPayloadCorruption) {
  FaultInjector inj(FaultSpec::Parse("mangle:op=begin,nth=2,replica=1"),
                    /*shard=*/3, /*replica=*/1);
  const auto first = inj.OnRequest("begin");
  EXPECT_FALSE(first.mangle);
  const auto second = inj.OnRequest("begin");
  EXPECT_TRUE(second.mangle);
  // Mangle is byte-corruption with a *valid* CRC: distinct from corrupt.
  EXPECT_FALSE(second.corrupt);
  EXPECT_FALSE(second.crash);
}

// --- Reactor wake -----------------------------------------------------------

/// A non-blocking wake pipe, as the sweep driver keeps one.
struct WakePipe {
  int fds[2] = {-1, -1};
  WakePipe() { EXPECT_EQ(pipe2(fds, O_NONBLOCK), 0); }
  ~WakePipe() {
    close(fds[0]);
    close(fds[1]);
  }
  bool Readable() const {
    struct pollfd pfd{fds[0], POLLIN, 0};
    return poll(&pfd, 1, 0) == 1;
  }
};

TEST(ServeReactorTest, AnotherThreadsReadWakesTheWaiterItCompleted) {
  SocketPair sp;
  Conn conn(sp.fds[0]);
  sp.fds[0] = -1;  // the connection owns it now
  WakePipe wake;
  // Thread A registers with its wake pipe and never reads; thread B
  // blocks in Wait on the same connection.
  conn.Expect(1, 7, wake.fds[1]);
  conn.Expect(2, 7);
  std::vector<char> out;
  ASSERT_TRUE(EncodeFrame(&out, FrameType::kReply, 1, 7, "a", 1));
  ASSERT_TRUE(EncodeFrame(&out, FrameType::kReply, 2, 7, "b", 1));
  ASSERT_TRUE(SendBytes(sp.fds[1], out.data(), out.size()));
  EXPECT_FALSE(wake.Readable());
  std::thread b([&] {
    Frame f;
    EXPECT_EQ(conn.Wait(2, 1000, &f), RecvStatus::kOk);
  });
  b.join();
  // B's one read drained both frames: A learns of its reply from the pipe
  // and collects it without reading the socket.
  EXPECT_TRUE(wake.Readable());
  Frame f;
  ASSERT_EQ(conn.TryWait(1, &f), RecvStatus::kOk);
  EXPECT_EQ(f.payload, std::vector<char>{'a'});
}

TEST(ServeReactorTest, ADeadStreamWakesEveryRegisteredPipe) {
  SocketPair sp;
  Conn conn(sp.fds[0]);
  sp.fds[0] = -1;
  WakePipe wake;
  conn.Expect(1, 7, wake.fds[1]);
  conn.Fail();
  EXPECT_TRUE(wake.Readable());
  EXPECT_EQ(conn.TryWait(1, nullptr), RecvStatus::kClosed);
}

/// A one-shard serving snapshot of `store` and a worker over it on a
/// socketpair, run on a thread; `fd()` is the router's end. Closing it is
/// the worker's EOF, and the worker must then return 0.
class WorkerUnderTest {
 public:
  explicit WorkerUnderTest(const std::string& fault_spec = "") {
    EXPECT_NE(mkdtemp(dir_.data()), nullptr);
    SaveServingSnapshot(Laesa(store, MakeDistance("dE"), 2), dir_);
    WorkerConfig config;
    config.store_path = ShardStorePath(dir_, 0);
    config.index_path = ShardIndexPath(dir_, 0);
    config.distance = "dE";
    config.fault_spec = fault_spec;
    worker_ = std::thread(
        [this, config] { exit_code_ = RunShardWorker(sp_.fds[1], config); });
  }
  ~WorkerUnderTest() {
    close(sp_.fds[0]);
    sp_.fds[0] = -1;
    worker_.join();
    EXPECT_EQ(exit_code_, 0);
    std::filesystem::remove_all(dir_);
  }

  const PrototypeStore store{
      std::vector<std::string>{"casa", "cosa", "masa", "mesa", "rosa", "risa"}};
  int fd() const { return sp_.fds[0]; }

 private:
  std::string dir_ =
      std::string(::testing::TempDir()) + "cned_worker_XXXXXX";
  SocketPair sp_;
  int exit_code_ = -1;
  std::thread worker_;
};

// Frame types 2, 5 and 6 are reserved: the frame layer still accepts them,
// and a worker answers them with kError as types it does not serve, then
// keeps serving.
TEST(ServeWorkerTest, AnswersReservedFrameTypeWithError) {
  WorkerUnderTest worker;

  // 2 was the lazy sweep's begin (a query string), 5 the lockstep step and
  // 6 the row sweep's own step (a skip and a bound each); each is answered
  // with kError, and the worker keeps serving.
  Frame f;
  std::uint32_t seq = 1;
  for (const std::uint32_t type : {2u, 5u, 6u}) {
    PayloadWriter w;
    if (type == 2) {
      w.Str("casa");
    } else {
      w.U32(0);
      w.F64(1.0);
    }
    ASSERT_TRUE(SendFrame(worker.fd(), static_cast<FrameType>(type), seq, 7,
                          w.buf.data(), w.buf.size()));
    ASSERT_EQ(RecvFrame(worker.fd(), &f, 5000), RecvStatus::kOk);
    EXPECT_EQ(f.type, static_cast<std::uint32_t>(FrameType::kError));
    EXPECT_EQ(f.seq, seq);
    PayloadReader r(f.payload);
    EXPECT_NE(r.Str().find("unexpected frame type " + std::to_string(type)),
              std::string::npos);
    ++seq;
  }

  ASSERT_TRUE(SendFrame(worker.fd(), FrameType::kPing, seq, 0, nullptr, 0));
  ASSERT_EQ(RecvFrame(worker.fd(), &f, 5000), RecvStatus::kOk);
  EXPECT_EQ(f.type, static_cast<std::uint32_t>(FrameType::kReply));
  EXPECT_EQ(f.seq, seq);
}

// The router keeps one request of a query in flight to a member, so a read
// with a later frame of its query behind it in the worker's batch was
// hedged away or resent: the worker skips it unanswered, and the fault
// schedule does not count it.
TEST(ServeWorkerTest, SkipsAReadItsQueryHasSuperseded) {
  // Counted, the skipped eval would get the answered one dropped.
  WorkerUnderTest worker("drop:op=eval,nth=2");

  // Query 7's begin, no pivot rows: every non-pivot survives.
  PayloadWriter begin;
  begin.Str("casa");
  begin.F64(std::numeric_limits<double>::infinity());
  begin.U64(0);
  Frame f;
  ASSERT_TRUE(SendFrame(worker.fd(), FrameType::kBeginRow, 1, 7,
                        begin.buf.data(), begin.buf.size()));
  ASSERT_EQ(RecvFrame(worker.fd(), &f, 5000), RecvStatus::kOk);
  ASSERT_EQ(f.type, static_cast<std::uint32_t>(FrameType::kReply));
  PayloadReader head(f.payload);
  head.U64();  // base tombstones
  const std::uint64_t first = head.U64();
  ASSERT_TRUE(head.ok());
  ASSERT_LT(first, worker.store.size());

  // One write: query 7's eval twice (the first superseded), an eval of
  // query 8 (not superseded: the 2nd counted eval, so dropped), a ping.
  PayloadWriter eval;
  eval.U64(first);
  eval.F64(std::numeric_limits<double>::infinity());
  std::vector<char> batch;
  EncodeFrame(&batch, FrameType::kEval, 2, 7, eval.buf.data(),
              eval.buf.size());
  EncodeFrame(&batch, FrameType::kEval, 3, 7, eval.buf.data(),
              eval.buf.size());
  EncodeFrame(&batch, FrameType::kEval, 4, 8, eval.buf.data(),
              eval.buf.size());
  EncodeFrame(&batch, FrameType::kPing, 5, 0, nullptr, 0);
  ASSERT_TRUE(SendBytes(worker.fd(), batch.data(), batch.size()));
  ASSERT_EQ(RecvFrame(worker.fd(), &f, 5000), RecvStatus::kOk);
  EXPECT_EQ(f.seq, 3u);
  EXPECT_EQ(f.type, static_cast<std::uint32_t>(FrameType::kReply));
  ASSERT_EQ(RecvFrame(worker.fd(), &f, 5000), RecvStatus::kOk);
  EXPECT_EQ(f.seq, 5u);
  EXPECT_EQ(f.type, static_cast<std::uint32_t>(FrameType::kReply));
}

}  // namespace
}  // namespace cned
