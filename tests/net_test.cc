// Tests for the network front-end (src/net/): handshake and typed calls
// over real sockets, emitted values round-tripping the wire, malformed /
// truncated / oversized frames closing the connection loudly without
// crashing the server or leaking its session slot, first-class
// backpressure (submission-queue kOverloaded and response-backlog
// shedding), server lifecycle (stop with live connections, double-stop,
// restart), and Database::Crash()+Recover() under a connected client.
// Runs under ASan+UBSan and TSan in CI like every other tier-1 test.
#include "net/server.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "net/protocol.h"
#include "pacman/database.h"
#include "workload/bank.h"

namespace pacman::net {
namespace {

// Minimal blocking test client over the raw protocol: just enough to
// exercise the server byte-for-byte (the real clients are
// bindings/pacman_client.py and bench/bench_net_loadgen.cc).
class TestClient {
 public:
  ~TestClient() { Close(); }

  bool Connect(uint16_t port, int rcvbuf_bytes = 0) {
    fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    if (rcvbuf_bytes > 0) {
      setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                 sizeof(rcvbuf_bytes));
    }
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }

  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }

  bool SendRaw(const void* data, size_t n) {
    const char* p = static_cast<const char*>(data);
    while (n > 0) {
      const ssize_t w = send(fd_, p, n, MSG_NOSIGNAL);
      if (w <= 0) return false;
      p += w;
      n -= static_cast<size_t>(w);
    }
    return true;
  }
  bool SendFrame(const Serializer& payload) {
    std::string wire;
    AppendFrame(payload, &wire);
    return SendRaw(wire.data(), wire.size());
  }
  bool SendFrame(const std::string& wire) {
    return SendRaw(wire.data(), wire.size());
  }

  // Receives one whole frame; false on EOF / error.
  bool RecvFrame(std::vector<uint8_t>* payload) {
    uint32_t len = 0;
    if (!RecvExact(&len, sizeof(len))) return false;
    if (len == 0 || len > kFrameLimit) return false;
    payload->resize(len);
    return RecvExact(payload->data(), len);
  }

  // True iff the peer has closed (reads EOF, possibly after frames we
  // drain and ignore).
  bool DrainUntilEof() {
    char buf[4096];
    for (;;) {
      const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return false;
    }
  }

  // -- protocol shorthand -------------------------------------------------
  bool Handshake() {
    if (!SendFrame(HelloFrame())) return false;
    std::vector<uint8_t> p;
    if (!RecvFrame(&p) || p.empty()) return false;
    return p[0] == static_cast<uint8_t>(MsgType::kHelloOk);
  }

  bool OpenSession(uint64_t* slot = nullptr) {
    Serializer s;
    s.PutU8(static_cast<uint8_t>(MsgType::kOpenSession));
    if (!SendFrame(s)) return false;
    std::vector<uint8_t> p;
    if (!RecvFrame(&p) || p.empty() ||
        p[0] != static_cast<uint8_t>(MsgType::kSessionOpened)) {
      return false;
    }
    Deserializer d(p.data() + 1, p.size() - 1);
    uint64_t got = 0;
    if (!d.GetU64(&got).ok()) return false;
    if (slot != nullptr) *slot = got;
    return true;
  }

  // Full connect + hello + open-session preamble.
  bool Open(uint16_t port, uint64_t* slot = nullptr) {
    return Connect(port) && Handshake() && OpenSession(slot);
  }

  bool GetProc(const std::string& name, uint32_t* id) {
    Serializer s;
    s.PutU8(static_cast<uint8_t>(MsgType::kGetProc));
    s.PutString(name);
    if (!SendFrame(s)) return false;
    std::vector<uint8_t> p;
    if (!RecvFrame(&p) || p.empty() ||
        p[0] != static_cast<uint8_t>(MsgType::kProcInfo)) {
      return false;
    }
    Deserializer d(p.data() + 1, p.size() - 1);
    uint8_t status = 0;
    std::string msg;
    if (!d.GetU8(&status).ok() || !d.GetString(&msg).ok()) return false;
    if (status != static_cast<uint8_t>(StatusCode::kOk)) return false;
    return d.GetU32(id).ok();
  }

  // Sends one call and waits for its result frame.
  bool Call(uint64_t request_id, uint32_t proc,
            const std::vector<Value>& args, CallResultMsg* out,
            uint8_t flags = 0) {
    if (!SendFrame(CallFrame(request_id, proc, flags, args))) return false;
    std::vector<uint8_t> p;
    if (!RecvFrame(&p) || p.empty() ||
        p[0] != static_cast<uint8_t>(MsgType::kCallResult)) {
      return false;
    }
    Deserializer d(p.data() + 1, p.size() - 1);
    return ParseCallResult(&d, out).ok();
  }

  int fd() const { return fd_; }

 private:
  bool RecvExact(void* out, size_t n) {
    char* p = static_cast<char*>(out);
    while (n > 0) {
      const ssize_t r = recv(fd_, p, n, 0);
      if (r <= 0) return false;
      p += r;
      n -= static_cast<size_t>(r);
    }
    return true;
  }

  int fd_ = -1;
};

class NetTest : public ::testing::Test {
 protected:
  std::unique_ptr<Database> MakeDb() {
    DatabaseOptions opts;
    opts.scheme = logging::LogScheme::kCommand;
    opts.commits_per_epoch = 50;
    opts.epochs_per_batch = 2;
    auto db = std::make_unique<Database>(opts);
    bank_.Install(db.get());
    db->FinalizeSchema();
    EXPECT_TRUE(db->TryTakeCheckpoint().ok());
    return db;
  }

  // Load() gives user u the Current balance 1000 + u % 97; every user has
  // a spouse, so Transfer always runs its guarded branch.
  workload::Bank bank_{workload::BankConfig{
      .num_users = 500, .num_nations = 8, .single_fraction = 0.0}};
};

TEST_F(NetTest, CallOverTheWireReturnsEmittedValues) {
  auto db = MakeDb();
  Server server(db.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  TestClient c;
  uint64_t slot = 0;
  ASSERT_TRUE(c.Open(server.port(), &slot));
  uint32_t deposit = 0;
  ASSERT_TRUE(c.GetProc("Deposit", &deposit));

  CallResultMsg r;
  ASSERT_TRUE(c.Call(41, deposit,
                     {Value(int64_t{7}), Value(250.0), Value(int64_t{3})},
                     &r));
  EXPECT_EQ(r.request_id, 41u);
  EXPECT_EQ(r.status, static_cast<uint8_t>(StatusCode::kOk));
  EXPECT_EQ(r.attempts, 1u);
  ASSERT_EQ(r.values.size(), 1u);
  // 1000 + 7 % 97 + 250.
  EXPECT_DOUBLE_EQ(r.values[0].AsDouble(), 1257.0);
  EXPECT_NE(r.commit_ts, 0u);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.calls, 1u);
  EXPECT_EQ(stats.sessions_open, 1u);
  server.Stop();
}

TEST_F(NetTest, SignatureMismatchTravelsAsFailedCallNotConnectionError) {
  auto db = MakeDb();
  Server server(db.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  TestClient c;
  ASSERT_TRUE(c.Open(server.port()));
  uint32_t deposit = 0;
  ASSERT_TRUE(c.GetProc("Deposit", &deposit));

  CallResultMsg r;
  // Wrong arity: rejected before execution, connection stays usable.
  ASSERT_TRUE(c.Call(1, deposit, {Value(int64_t{7})}, &r));
  EXPECT_EQ(r.status, static_cast<uint8_t>(StatusCode::kInvalidArgument));
  EXPECT_EQ(r.attempts, 0u);

  // Unknown procedure id: same contract.
  ASSERT_TRUE(c.Call(2, 0xDEAD, {}, &r));
  EXPECT_EQ(r.status, static_cast<uint8_t>(StatusCode::kInvalidArgument));

  // The connection survived both rejections.
  ASSERT_TRUE(c.Call(3, deposit,
                     {Value(int64_t{1}), Value(1.0), Value(int64_t{0})}, &r));
  EXPECT_EQ(r.status, static_cast<uint8_t>(StatusCode::kOk));
  server.Stop();
}

TEST_F(NetTest, AdhocFlagReachesTheEngine) {
  auto db = MakeDb();
  Server server(db.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  TestClient c;
  ASSERT_TRUE(c.Open(server.port()));
  uint32_t transfer = 0;
  ASSERT_TRUE(c.GetProc("Transfer", &transfer));
  CallResultMsg r;
  ASSERT_TRUE(c.Call(1, transfer, {Value(int64_t{4}), Value(10.0)}, &r,
                     kCallFlagAdhoc));
  EXPECT_EQ(r.status, static_cast<uint8_t>(StatusCode::kOk));
  ASSERT_EQ(r.values.size(), 2u);
  server.Stop();
}

TEST_F(NetTest, PingAndFlushRoundTrip) {
  auto db = MakeDb();
  Server server(db.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  TestClient c;
  ASSERT_TRUE(c.Connect(server.port()));
  ASSERT_TRUE(c.Handshake());

  Serializer ping;
  ping.PutU8(static_cast<uint8_t>(MsgType::kPing));
  ping.PutU64(77);
  ASSERT_TRUE(c.SendFrame(ping));
  std::vector<uint8_t> p;
  ASSERT_TRUE(c.RecvFrame(&p));
  ASSERT_EQ(p[0], static_cast<uint8_t>(MsgType::kPong));
  Deserializer d(p.data() + 1, p.size() - 1);
  uint64_t token = 0;
  ASSERT_TRUE(d.GetU64(&token).ok());
  EXPECT_EQ(token, 77u);

  Serializer flush;
  flush.PutU8(static_cast<uint8_t>(MsgType::kFlush));
  ASSERT_TRUE(c.SendFrame(flush));
  ASSERT_TRUE(c.RecvFrame(&p));
  ASSERT_EQ(p[0], static_cast<uint8_t>(MsgType::kFlushOk));
  Deserializer fl(p.data() + 1, p.size() - 1);
  uint8_t status = 0xFF;
  ASSERT_TRUE(fl.GetU8(&status).ok());
  EXPECT_EQ(status, static_cast<uint8_t>(StatusCode::kOk));
  server.Stop();
}

// --- Malformed input: loud close, no crash, no leaked session slot ------

TEST_F(NetTest, BadMagicIsRejectedWithErrorFrame) {
  auto db = MakeDb();
  Server server(db.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  TestClient c;
  ASSERT_TRUE(c.Connect(server.port()));
  Serializer hello;
  hello.PutU8(static_cast<uint8_t>(MsgType::kHello));
  hello.PutU32(0x1BADF00D);
  hello.PutU8(kProtocolVersion);
  ASSERT_TRUE(c.SendFrame(hello));
  std::vector<uint8_t> p;
  ASSERT_TRUE(c.RecvFrame(&p));
  EXPECT_EQ(p[0], static_cast<uint8_t>(MsgType::kError));
  EXPECT_TRUE(c.DrainUntilEof());
  EXPECT_GE(server.stats().protocol_errors, 1u);
  server.Stop();
}

TEST_F(NetTest, TruncatedCallPayloadClosesLoudly) {
  auto db = MakeDb();
  Server server(db.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  TestClient c;
  ASSERT_TRUE(c.Open(server.port()));
  // A kCall frame whose declared arity promises more Values than the
  // payload carries: the deserializer underflows -> kError + close.
  Serializer s;
  s.PutU8(static_cast<uint8_t>(MsgType::kCall));
  s.PutU64(9);
  s.PutU32(0);
  s.PutU8(0);
  s.PutU32(5);  // Five args promised, zero encoded.
  ASSERT_TRUE(c.SendFrame(s));
  std::vector<uint8_t> p;
  ASSERT_TRUE(c.RecvFrame(&p));
  EXPECT_EQ(p[0], static_cast<uint8_t>(MsgType::kError));
  EXPECT_TRUE(c.DrainUntilEof());
  server.Stop();
}

TEST_F(NetTest, OversizedFrameLengthClosesLoudly) {
  auto db = MakeDb();
  ServerOptions sopts;
  sopts.max_frame_bytes = 1024;
  Server server(db.get(), sopts);
  ASSERT_TRUE(server.Start().ok());

  TestClient c;
  ASSERT_TRUE(c.Connect(server.port()));
  ASSERT_TRUE(c.Handshake());
  // A length prefix beyond max_frame_bytes is rejected before any
  // payload accumulates.
  const uint32_t huge = 512u << 20;
  ASSERT_TRUE(c.SendRaw(&huge, sizeof(huge)));
  std::vector<uint8_t> p;
  ASSERT_TRUE(c.RecvFrame(&p));
  EXPECT_EQ(p[0], static_cast<uint8_t>(MsgType::kError));
  EXPECT_TRUE(c.DrainUntilEof());
  server.Stop();
}

TEST_F(NetTest, TrailingGarbageInFrameClosesLoudly) {
  auto db = MakeDb();
  Server server(db.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  TestClient c;
  ASSERT_TRUE(c.Open(server.port()));
  Serializer s;
  s.PutU8(static_cast<uint8_t>(MsgType::kCall));
  s.PutU64(9);
  s.PutU32(0);
  s.PutU8(0);
  s.PutU32(0);
  s.PutU32(0xFEEDFACE);  // Trailing bytes after a well-formed body.
  ASSERT_TRUE(c.SendFrame(s));
  std::vector<uint8_t> p;
  ASSERT_TRUE(c.RecvFrame(&p));
  EXPECT_EQ(p[0], static_cast<uint8_t>(MsgType::kError));
  EXPECT_TRUE(c.DrainUntilEof());
  server.Stop();
}

TEST_F(NetTest, MalformedClientDoesNotLeakItsSessionSlot) {
  auto db = MakeDb();
  Server server(db.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  // Open a session, then violate the protocol.
  uint64_t slot_a = 0;
  {
    TestClient bad;
    ASSERT_TRUE(bad.Open(server.port(), &slot_a));
    const char garbage[] = "\x05\x00\x00\x00junk!";
    ASSERT_TRUE(bad.SendRaw(garbage, 9));
    EXPECT_TRUE(bad.DrainUntilEof());
  }

  // The slot must come back to the free list: a fresh connection gets a
  // recycled slot, not a monotonically growing one.
  for (int attempt = 0; attempt < 100; ++attempt) {
    TestClient fresh;
    uint64_t slot_b = 0;
    ASSERT_TRUE(fresh.Open(server.port(), &slot_b));
    if (slot_b == slot_a) break;  // Recycled: no leak.
    // The IO loop may not have reaped the old connection yet; retry.
    ASSERT_LT(attempt, 99) << "session slot " << slot_a << " never reused";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // The probe connections close asynchronously; every session must drain.
  for (int i = 0; i < 500 && server.stats().sessions_open != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.stats().sessions_open, 0u);
  server.Stop();
}

// --- Backpressure --------------------------------------------------------

TEST_F(NetTest, PostWithoutWaitSurfacesOverloadedStatus) {
  // In-process form of the same contract the wire path uses: a capacity-1
  // queue and nonblocking Posts must yield named kOverloaded rejections,
  // and accepted + rejected must conserve the submission count.
  auto db = MakeDb();
  db->StartWorkers(1, /*queue_capacity=*/1);
  auto session = db->OpenSession();
  ProcHandle transfer = db->proc("Transfer");

  TxnOptions opts;
  opts.wait_if_full = false;
  uint64_t accepted = 0;
  uint64_t overloaded = 0;
  for (int i = 0; i < 2000; ++i) {
    const Status s = session->Post(
        transfer, {Value(int64_t{2 * (i % 200)}), Value(0.25)}, opts);
    if (s.ok()) {
      accepted++;
    } else {
      ASSERT_EQ(s.code(), StatusCode::kOverloaded) << s.ToString();
      overloaded++;
    }
  }
  EXPECT_GT(overloaded, 0u);
  EXPECT_GT(accepted, 0u);
  EXPECT_EQ(accepted + overloaded, 2000u);
  db->StopWorkers();
  // Every accepted post ran to completion before StopWorkers returned.
  EXPECT_EQ(db->commits(), accepted);
}

TEST_F(NetTest, SlowClientIsShedWhileFastClientKeepsCommitting) {
  auto db = MakeDb();
  ServerOptions sopts;
  // Shrink both the per-connection outbound cap and the kernel send
  // buffer so a non-draining client trips the response-side backpressure
  // at test-sized volumes instead of megabytes.
  sopts.max_outbound_bytes = 16 * 1024;
  sopts.sndbuf_bytes = 8 * 1024;
  sopts.shed_linger_ms = 50;
  Server server(db.get(), sopts);
  ASSERT_TRUE(server.Start().ok());

  TestClient slow;
  ASSERT_TRUE(slow.Connect(server.port(), /*rcvbuf_bytes=*/4096));
  ASSERT_TRUE(slow.Handshake());
  ASSERT_TRUE(slow.OpenSession());
  uint32_t transfer = 0;
  ASSERT_TRUE(slow.GetProc("Transfer", &transfer));

  // Fire calls without ever reading results: responses pile up first in
  // the kernel buffers, then in the server's bounded outbound queue,
  // until the server sheds us.
  for (int i = 0; i < 5000; ++i) {
    const std::string frame = CallFrame(
        static_cast<uint64_t>(i), transfer,
        0, {Value(int64_t{2 * (i % 200)}), Value(0.01)});
    if (!slow.SendFrame(frame)) break;  // Server closed on us: shed.
  }

  // Server must have shed the slow client...
  for (int i = 0; i < 500 && server.stats().shed == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server.stats().shed, 1u);

  // ...and stays available to a well-behaved client. The submit queue may
  // still be draining the slow client's backlog, and the queue-full policy
  // sheds a caller that hits it — so behave like a real client: reconnect
  // and retry until the overload clears.
  bool committed = false;
  for (int attempt = 0; attempt < 200 && !committed; ++attempt) {
    TestClient fast;
    uint32_t deposit = 0;
    CallResultMsg r;
    if (fast.Open(server.port()) && fast.GetProc("Deposit", &deposit) &&
        fast.Call(1, deposit,
                  {Value(int64_t{3}), Value(5.0), Value(int64_t{1})}, &r) &&
        r.status == static_cast<uint8_t>(StatusCode::kOk)) {
      committed = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(committed);
  server.Stop();
}

TEST_F(NetTest, ConnectionLimitShedsWithOverloadFrame) {
  auto db = MakeDb();
  ServerOptions sopts;
  sopts.max_connections = 1;
  Server server(db.get(), sopts);
  ASSERT_TRUE(server.Start().ok());

  TestClient first;
  ASSERT_TRUE(first.Open(server.port()));

  TestClient second;
  ASSERT_TRUE(second.Connect(server.port()));
  std::vector<uint8_t> p;
  ASSERT_TRUE(second.RecvFrame(&p));
  EXPECT_EQ(p[0], static_cast<uint8_t>(MsgType::kOverloaded));
  EXPECT_TRUE(second.DrainUntilEof());
  server.Stop();
}

// --- Lifecycle -----------------------------------------------------------

TEST_F(NetTest, StopWithLiveConnectionsAndDoubleStopAreClean) {
  auto db = MakeDb();
  Server server(db.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  EXPECT_FALSE(server.Start().ok());  // Second Start while running.

  std::vector<std::unique_ptr<TestClient>> clients;
  for (int i = 0; i < 4; ++i) {
    auto c = std::make_unique<TestClient>();
    ASSERT_TRUE(c->Open(server.port()));
    clients.push_back(std::move(c));
  }
  EXPECT_EQ(server.stats().sessions_open, 4u);

  server.Stop();
  server.Stop();  // Idempotent.
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.stats().sessions_open, 0u);
  EXPECT_EQ(server.stats().active, 0u);
  for (auto& c : clients) EXPECT_TRUE(c->DrainUntilEof());

  // The port is released: a fresh Start binds again.
  ASSERT_TRUE(server.Start().ok());
  TestClient again;
  EXPECT_TRUE(again.Open(server.port()));
  server.Stop();
}

TEST_F(NetTest, CrashAndRecoverUnderALiveServer) {
  auto db = MakeDb();
  Server server(db.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  TestClient c;
  ASSERT_TRUE(c.Open(server.port()));
  uint32_t deposit = 0;
  ASSERT_TRUE(c.GetProc("Deposit", &deposit));
  CallResultMsg r;
  ASSERT_TRUE(c.Call(1, deposit,
                     {Value(int64_t{7}), Value(100.0), Value(int64_t{3})},
                     &r));
  ASSERT_EQ(r.status, static_cast<uint8_t>(StatusCode::kOk));
  db->AdvanceEpoch();  // Group commit: make the deposit durable.

  // Crash the database out from under the server. In-flight submissions
  // drain into the crash point; the connection survives.
  db->Crash();
  ASSERT_TRUE(c.Call(2, deposit,
                     {Value(int64_t{7}), Value(1.0), Value(int64_t{3})}, &r));
  EXPECT_EQ(r.status, static_cast<uint8_t>(StatusCode::kUnavailable));

  recovery::RecoveryOptions ropts;
  ropts.num_threads = 2;
  db->Recover(recovery::Scheme::kClrP, ropts, ExecutionBackend::kThreads);

  // A mid-flight client reconnects and sees the recovered state (the
  // executor pool is re-established lazily on its first call).
  TestClient again;
  ASSERT_TRUE(again.Open(server.port()));
  ASSERT_TRUE(again.GetProc("Deposit", &deposit));
  ASSERT_TRUE(again.Call(3, deposit,
                         {Value(int64_t{7}), Value(0.0), Value(int64_t{3})},
                         &r));
  EXPECT_EQ(r.status, static_cast<uint8_t>(StatusCode::kOk));
  ASSERT_EQ(r.values.size(), 1u);
  // 1000 + 7 % 97 + the durable 100 deposit.
  EXPECT_DOUBLE_EQ(r.values[0].AsDouble(), 1107.0);

  // The pre-crash connection was already poisoned mid-flight; the
  // post-recovery contract is for reconnecting clients.
  server.Stop();
}

TEST_F(NetTest, CallBeforeOpenSessionIsAProtocolError) {
  auto db = MakeDb();
  Server server(db.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  TestClient c;
  ASSERT_TRUE(c.Connect(server.port()));
  ASSERT_TRUE(c.Handshake());
  ASSERT_TRUE(c.SendFrame(CallFrame(1, 0, 0, {})));
  std::vector<uint8_t> p;
  ASSERT_TRUE(c.RecvFrame(&p));
  EXPECT_EQ(p[0], static_cast<uint8_t>(MsgType::kError));
  EXPECT_TRUE(c.DrainUntilEof());
  server.Stop();
}

TEST_F(NetTest, ManyConcurrentWireClientsConserveMoney) {
  auto db = MakeDb();
  ServerOptions sopts;
  sopts.io_threads = 2;
  sopts.executor_workers = 4;
  Server server(db.get(), sopts);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 8;
  constexpr int kCallsPerClient = 100;
  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      TestClient c;
      ASSERT_TRUE(c.Open(server.port()));
      uint32_t transfer = 0;
      ASSERT_TRUE(c.GetProc("Transfer", &transfer));
      for (int i = 0; i < kCallsPerClient; ++i) {
        CallResultMsg r;
        ASSERT_TRUE(c.Call(static_cast<uint64_t>(i), transfer,
                           {Value(int64_t{2 * ((t * 31 + i) % 200)}),
                            Value(1.0)},
                           &r));
        if (r.status == static_cast<uint8_t>(StatusCode::kOk)) committed++;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(committed.load(), kClients * kCallsPerClient);
  EXPECT_EQ(server.stats().calls, kClients * kCallsPerClient + 0u);
  server.Stop();
  EXPECT_EQ(db->commits(), committed.load());
}

}  // namespace
}  // namespace pacman::net
