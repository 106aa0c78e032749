#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <functional>
#include <utility>

#include "common/serializer.h"
#include "pacman/database.h"

namespace pacman::net {

namespace {

using Clock = std::chrono::steady_clock;

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

// Eventfd wrapper that unblocks a poll(2) loop. Held by shared_ptr: the
// executor completion callbacks that signal it can outlive the loop (and
// the whole server), and must never write a recycled fd.
struct Wake {
  int fd = -1;

  Wake() { fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC); }
  ~Wake() {
    if (fd >= 0) close(fd);
  }
  void Signal() const {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(fd, &one, sizeof(one));
  }
  void DrainSignals() const {
    uint64_t v = 0;
    while (read(fd, &v, sizeof(v)) > 0) {
    }
  }
};

// One client connection. The IO thread that owns the loop is the only
// reader of the socket and the only closer; executor completion callbacks
// share the outbound queue under `mu`. Held by shared_ptr so a callback
// finishing after the connection closed lands on a live object (and is
// dropped by the `dead` flag) instead of a dangling one.
struct Conn {
  int fd = -1;

  // IO-thread-only state.
  std::string in;  // Frame reassembly buffer.
  bool hello_done = false;
  std::unique_ptr<Session> session;

  // Shared with executor completion callbacks; guarded by mu. The rule
  // that keeps the server deadlock-free: mu is never held across
  // Database::PostToService (or any other engine call).
  std::mutex mu;
  std::deque<std::string> out;  // Whole frames; front sent up to out_off.
  size_t out_off = 0;           // Bytes of out.front() already sent.
  size_t out_bytes = 0;         // Total pending (backpressure gauge).
  bool draining = false;        // No more reads; close once out empties.
  bool dead = false;            // fd closed; drop late responses.
  Clock::time_point deadline{};  // Forced-close cutoff while draining.

  void PushLocked(std::string frame) {
    out_bytes += frame.size();
    out.push_back(std::move(frame));
  }

  // Sheds the client: drops every undelivered whole frame (the partially
  // sent front stays so the byte stream remains frame-aligned), queues
  // one kOverloaded notice and stops further reads. Returns whether this
  // call did the shedding (false when already draining/dead).
  bool ShedLocked(const std::string& reason, std::chrono::milliseconds linger) {
    if (dead || draining) return false;
    while (out.size() > (out_off > 0 ? 1u : 0u)) {
      out_bytes -= out.back().size();
      out.pop_back();
    }
    PushLocked(OverloadedFrame(reason));
    draining = true;
    deadline = Clock::now() + linger;
    return true;
  }

  // Nonblocking flush of the outbound queue. Returns false on a fatal
  // socket error. IO thread only (but under mu: callbacks append).
  bool FlushLocked() {
    while (!out.empty()) {
      const std::string& f = out.front();
      const ssize_t n =
          send(fd, f.data() + out_off, f.size() - out_off, MSG_NOSIGNAL);
      if (n > 0) {
        out_off += static_cast<size_t>(n);
        if (out_off == f.size()) {
          out_bytes -= f.size();
          out.pop_front();
          out_off = 0;
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    return true;
  }
};

}  // namespace

// Stats and configuration shared between the server, its IO loops and the
// executor completion callbacks (which may outlive both — hence a
// shared_ptr and atomics).
struct Server::Shared {
  Database* db = nullptr;
  ServerOptions options;
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> active{0};
  std::atomic<uint64_t> sessions_open{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> protocol_errors{0};
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> call_errors{0};
};

// One poll(2) loop, run to completion as a single task on the server's
// thread pool. Loop 0 additionally owns the listener and hands accepted
// sockets out round-robin through `assign` (which lands them in some
// loop's inbox).
class Server::IoLoop {
 public:
  IoLoop(Database* db, std::shared_ptr<Shared> shared, int listen_fd,
         std::function<void(int)> assign)
      : db_(db),
        shared_(std::move(shared)),
        wake_(std::make_shared<Wake>()),
        listen_fd_(listen_fd),
        assign_(std::move(assign)) {
    PACMAN_CHECK_MSG(wake_->fd >= 0, "eventfd creation failed");
  }

  void RequestStop() {
    stop_.store(true, std::memory_order_release);
    wake_->Signal();
  }

  // Hands an accepted (already nonblocking) socket to this loop.
  void Adopt(int fd) {
    {
      std::lock_guard<std::mutex> g(inbox_mu_);
      inbox_.push_back(fd);
    }
    wake_->Signal();
  }

  void Run() {
    std::vector<pollfd> pfds;
    std::vector<std::shared_ptr<Conn>> polled;
    while (!stop_.load(std::memory_order_acquire)) {
      AdoptInbox();
      Sweep();

      pfds.clear();
      polled.clear();
      pfds.push_back({wake_->fd, POLLIN, 0});
      if (listen_fd_ >= 0) pfds.push_back({listen_fd_, POLLIN, 0});
      for (const std::shared_ptr<Conn>& conn : conns_) {
        short events = 0;
        {
          std::lock_guard<std::mutex> g(conn->mu);
          if (!conn->draining) events |= POLLIN;
          if (!conn->out.empty()) events |= POLLOUT;
        }
        pfds.push_back({conn->fd, events, 0});
        polled.push_back(conn);
      }

      // 50ms tick bounds how late a draining connection's forced-close
      // deadline is noticed.
      if (poll(pfds.data(), pfds.size(), 50) < 0 && errno != EINTR) break;

      size_t i = 0;
      if (pfds[i].revents & POLLIN) wake_->DrainSignals();
      ++i;
      if (listen_fd_ >= 0) {
        if (pfds[i].revents & POLLIN) AcceptReady();
        ++i;
      }
      for (size_t c = 0; c < polled.size(); ++c, ++i) {
        const std::shared_ptr<Conn>& conn = polled[c];
        const short re = pfds[i].revents;
        if (re == 0) continue;
        if (re & POLLOUT) {
          std::lock_guard<std::mutex> g(conn->mu);
          if (!conn->FlushLocked()) MarkCloseNowLocked(*conn);
        }
        if (re & POLLIN) HandleReadable(conn);
        if ((re & (POLLERR | POLLNVAL)) ||
            ((re & POLLHUP) && !(re & POLLIN))) {
          MarkCloseNow(conn);
        }
      }
    }
    for (std::shared_ptr<Conn>& conn : conns_) CloseConn(conn);
    conns_.clear();
  }

 private:
  const ServerOptions& opts() const { return shared_->options; }
  std::chrono::milliseconds linger() const {
    return std::chrono::milliseconds(opts().shed_linger_ms);
  }

  void AdoptInbox() {
    std::vector<int> fds;
    {
      std::lock_guard<std::mutex> g(inbox_mu_);
      fds.swap(inbox_);
    }
    for (int fd : fds) {
      auto conn = std::make_shared<Conn>();
      conn->fd = fd;
      conns_.push_back(std::move(conn));
    }
  }

  // Flushes, enforces draining deadlines, reaps closed connections.
  void Sweep() {
    const Clock::time_point now = Clock::now();
    for (size_t i = 0; i < conns_.size();) {
      const std::shared_ptr<Conn>& conn = conns_[i];
      bool close_now = false;
      {
        std::lock_guard<std::mutex> g(conn->mu);
        if (!conn->out.empty() && !conn->FlushLocked()) close_now = true;
        if (conn->draining &&
            (conn->out.empty() || now >= conn->deadline)) {
          close_now = true;
        }
      }
      if (close_now) {
        CloseConn(conns_[i]);
        conns_[i] = std::move(conns_.back());
        conns_.pop_back();
      } else {
        ++i;
      }
    }
  }

  // Caller holds conn.mu (conn->mu is non-recursive).
  static void MarkCloseNowLocked(Conn& conn) {
    conn.draining = true;
    conn.deadline = Clock::now();
    conn.out.clear();
    conn.out_bytes = 0;
    conn.out_off = 0;
  }

  void MarkCloseNow(const std::shared_ptr<Conn>& conn) {
    std::lock_guard<std::mutex> g(conn->mu);
    MarkCloseNowLocked(*conn);
  }

  void CloseConn(std::shared_ptr<Conn>& conn) {
    {
      std::lock_guard<std::mutex> g(conn->mu);
      conn->dead = true;
      conn->out.clear();
      conn->out_bytes = 0;
    }
    if (conn->session != nullptr) {
      // Deterministic slot release on the IO thread: the next connection
      // can reuse this session's worker log-buffer slot immediately.
      conn->session.reset();
      shared_->sessions_open.fetch_sub(1, std::memory_order_relaxed);
    }
    close(conn->fd);
    shared_->active.fetch_sub(1, std::memory_order_relaxed);
    conn.reset();
  }

  void AcceptReady() {
    for (;;) {
      const int fd =
          accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN, or transient accept failure: retry next tick.
      }
      shared_->accepted.fetch_add(1, std::memory_order_relaxed);
      if (shared_->active.load(std::memory_order_relaxed) >=
          opts().max_connections) {
        // Over the connection cap: a best-effort overload notice, then
        // refuse. The listener never stops accepting — unbounded kernel
        // backlog is worse than an explicit shed.
        const std::string f = OverloadedFrame("connection limit reached");
        [[maybe_unused]] ssize_t n = send(fd, f.data(), f.size(), MSG_NOSIGNAL);
        close(fd);
        shared_->shed.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      if (opts().sndbuf_bytes > 0) {
        setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &opts().sndbuf_bytes,
                   sizeof(int));
      }
      shared_->active.fetch_add(1, std::memory_order_relaxed);
      assign_(fd);
    }
  }

  void HandleReadable(const std::shared_ptr<Conn>& conn) {
    char buf[64 * 1024];
    for (;;) {
      {
        std::lock_guard<std::mutex> g(conn->mu);
        if (conn->draining) return;  // Shed mid-read: stop consuming.
      }
      const ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn->in.append(buf, static_cast<size_t>(n));
        ProcessInbound(conn);
        continue;
      }
      if (n == 0) {  // Orderly EOF.
        MarkCloseNow(conn);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      MarkCloseNow(conn);
      return;
    }
  }

  void ProcessInbound(const std::shared_ptr<Conn>& conn) {
    // Frames are consumed by advancing an offset; the buffer is compacted
    // once at the end, so a read full of pipelined small frames costs one
    // memmove instead of one per frame.
    std::string& in = conn->in;
    size_t consumed = 0;
    for (;;) {
      {
        std::lock_guard<std::mutex> g(conn->mu);
        if (conn->draining) break;
      }
      if (in.size() - consumed < sizeof(uint32_t)) break;
      uint32_t len = 0;
      std::memcpy(&len, in.data() + consumed, sizeof(len));
      const size_t cap = std::min(kFrameLimit, opts().max_frame_bytes);
      if (len == 0 || len > cap) {
        // A length prefix outside the frame cap is garbage (or abuse),
        // not a request — the connection is beyond resynchronization.
        FatalError(conn,
                   Status::Corruption(
                       "frame length " + std::to_string(len) +
                       " outside (0, " + std::to_string(cap) + "]"));
        break;
      }
      if (in.size() - consumed < sizeof(uint32_t) + len) break;
      ProcessFrame(conn,
                   reinterpret_cast<const uint8_t*>(in.data()) + consumed +
                       sizeof(len),
                   len);
      consumed += sizeof(len) + len;
    }
    if (consumed > 0) in.erase(0, consumed);
  }

  void ProcessFrame(const std::shared_ptr<Conn>& conn, const uint8_t* p,
                    size_t n) {
    const MsgType t = static_cast<MsgType>(p[0]);
    Deserializer d(p + 1, n - 1);
    if (!conn->hello_done) {
      if (t != MsgType::kHello) {
        FatalError(conn, Status::InvalidArgument(
                             std::string("expected Hello, got ") +
                             MsgTypeName(t)));
        return;
      }
      uint32_t magic = 0;
      uint8_t version = 0;
      Status s = d.GetU32(&magic);
      if (s.ok()) s = d.GetU8(&version);
      if (!s.ok() || !d.AtEnd()) {
        FatalError(conn, Status::Corruption("malformed Hello frame"));
        return;
      }
      if (magic != kMagic) {
        FatalError(conn, Status::InvalidArgument("bad magic (not PACM)"));
        return;
      }
      if (version != kProtocolVersion) {
        FatalError(conn, Status::InvalidArgument(
                             "protocol version " + std::to_string(version) +
                             " unsupported (server speaks " +
                             std::to_string(kProtocolVersion) + ")"));
        return;
      }
      Serializer reply;
      reply.PutU8(static_cast<uint8_t>(MsgType::kHelloOk));
      reply.PutU8(kProtocolVersion);
      conn->hello_done = true;
      SendNow(conn, reply);
      return;
    }

    switch (t) {
      case MsgType::kOpenSession:
        HandleOpenSession(conn, &d);
        return;
      case MsgType::kGetProc:
        HandleGetProc(conn, &d);
        return;
      case MsgType::kCall:
        HandleCall(conn, &d);
        return;
      case MsgType::kPing: {
        uint64_t token = 0;
        if (!d.GetU64(&token).ok() || !d.AtEnd()) {
          FatalError(conn, Status::Corruption("malformed Ping frame"));
          return;
        }
        Serializer reply;
        reply.PutU8(static_cast<uint8_t>(MsgType::kPong));
        reply.PutU64(token);
        SendNow(conn, reply);
        return;
      }
      case MsgType::kFlush:
        HandleFlush(conn, &d);
        return;
      default:
        FatalError(conn, Status::InvalidArgument(
                             std::string("unexpected message type ") +
                             MsgTypeName(t)));
        return;
    }
  }

  void HandleOpenSession(const std::shared_ptr<Conn>& conn, Deserializer* d) {
    if (!d->AtEnd()) {
      FatalError(conn, Status::Corruption("malformed OpenSession frame"));
      return;
    }
    if (conn->session != nullptr) {
      FatalError(conn, Status::AlreadyExists(
                           "session already open on this connection"));
      return;
    }
    conn->session = db_->OpenSession();
    shared_->sessions_open.fetch_add(1, std::memory_order_relaxed);
    Serializer reply;
    reply.PutU8(static_cast<uint8_t>(MsgType::kSessionOpened));
    reply.PutU64(conn->session->slot());
    SendNow(conn, reply);
  }

  void HandleGetProc(const std::shared_ptr<Conn>& conn, Deserializer* d) {
    std::string name;
    if (!d->GetString(&name).ok() || !d->AtEnd()) {
      FatalError(conn, Status::Corruption("malformed GetProc frame"));
      return;
    }
    Serializer reply;
    reply.PutU8(static_cast<uint8_t>(MsgType::kProcInfo));
    const ProcHandle h = db_->proc(name);
    if (!h.valid()) {
      reply.PutU8(static_cast<uint8_t>(StatusCode::kNotFound));
      reply.PutString("unknown procedure \"" + name + "\"");
    } else {
      reply.PutU8(static_cast<uint8_t>(StatusCode::kOk));
      reply.PutString("");
      reply.PutU32(static_cast<uint32_t>(h.id()));
      const std::vector<ValueType>& params = h.param_types();
      reply.PutU32(static_cast<uint32_t>(params.size()));
      for (ValueType vt : params) reply.PutU8(static_cast<uint8_t>(vt));
    }
    SendNow(conn, reply);
  }

  void HandleFlush(const std::shared_ptr<Conn>& conn, Deserializer* d) {
    if (!d->AtEnd()) {
      FatalError(conn, Status::Corruption("malformed Flush frame"));
      return;
    }
    Serializer reply;
    reply.PutU8(static_cast<uint8_t>(MsgType::kFlushOk));
    if (db_->crashed()) {
      reply.PutU8(static_cast<uint8_t>(StatusCode::kUnavailable));
      reply.PutString("database crashed; awaiting recovery");
    } else {
      // Group-commit flush as a client-driven durability fence: on return
      // Ok, every previously answered commit is on stable storage. A
      // failed flush (including the pepoch watermark write) degrades the
      // database and is reported — the fence must never ack work the
      // device did not keep.
      const logging::FlushCost cost = db_->AdvanceEpoch();
      reply.PutU8(static_cast<uint8_t>(cost.status.code()));
      reply.PutString(cost.status.ok() ? "" : cost.status.message());
    }
    SendNow(conn, reply);
  }

  void HandleCall(const std::shared_ptr<Conn>& conn, Deserializer* d) {
    CallRequest req;
    const Status parsed = ParseCall(d, &req);
    if (!parsed.ok()) {
      FatalError(conn, parsed);
      return;
    }
    if (conn->session == nullptr) {
      FatalError(conn,
                 Status::InvalidArgument("Call before OpenSession"));
      return;
    }
    shared_->calls.fetch_add(1, std::memory_order_relaxed);
    if (req.proc >= db_->num_procedures()) {
      RespondCallError(conn, req.request_id,
                       Status::InvalidArgument("unknown procedure id " +
                                               std::to_string(req.proc)));
      return;
    }
    const ProcHandle h = db_->proc(static_cast<ProcId>(req.proc));
    const Status check = conn->session->Check(h, req.args);
    if (!check.ok()) {
      RespondCallError(conn, req.request_id, check);
      return;
    }
    // (Re)establish the executor pool lazily — Start() raced a
    // StopWorkers, or the database just came back from Recover().
    if (!db_->workers_running() && !db_->crashed()) {
      db_->EnsureWorkers(opts().executor_workers, opts().queue_capacity);
    }
    TxnOptions topts;
    topts.adhoc = (req.flags & kCallFlagAdhoc) != 0;
    topts.wait_if_full = false;  // Backpressure sheds; it never stalls IO.
    const Status post = db_->PostToService(
        h.id(), std::move(req.args), topts,
        MakeCompletion(conn, req.request_id));
    if (post.ok()) return;
    shared_->call_errors.fetch_add(1, std::memory_order_relaxed);
    if (post.code() == StatusCode::kOverloaded) {
      bool shed_now = false;
      {
        std::lock_guard<std::mutex> g(conn->mu);
        shed_now = conn->ShedLocked(post.message(), linger());
        if (shed_now) conn->FlushLocked();
      }
      if (shed_now) shared_->shed.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // kUnavailable (crashed, or the pool stopped under us): the call is
    // answered, not the connection killed — the client decides whether to
    // wait out recovery or reconnect.
    RespondCallError(conn, req.request_id, post);
  }

  TxnCompletion MakeCompletion(std::shared_ptr<Conn> conn,
                               uint64_t request_id) {
    // Runs on an executor thread, possibly after the connection — or the
    // whole server — is gone; everything it touches is shared_ptr-held.
    return [conn = std::move(conn), wake = wake_, shared = shared_,
            request_id](TxnResult r) {
      CallResultMsg msg;
      msg.request_id = request_id;
      msg.status = static_cast<uint8_t>(r.status.code());
      msg.message = r.status.ok() ? std::string() : r.status.message();
      msg.attempts = static_cast<uint32_t>(r.attempts);
      msg.commit_ts = static_cast<uint64_t>(r.commit_ts);
      msg.values = std::move(r.values);
      std::string frame = CallResultFrame(msg);
      bool shed_now = false;
      {
        std::lock_guard<std::mutex> g(conn->mu);
        if (conn->dead || conn->draining) return;  // Client already gone.
        conn->PushLocked(std::move(frame));
        if (conn->out_bytes > shared->options.max_outbound_bytes) {
          // The client is not draining its responses: shed it rather
          // than buffer without bound.
          shed_now = conn->ShedLocked(
              "outbound backlog exceeds " +
                  std::to_string(shared->options.max_outbound_bytes) +
                  " bytes (client not draining responses)",
              std::chrono::milliseconds(shared->options.shed_linger_ms));
        }
      }
      if (shed_now) shared->shed.fetch_add(1, std::memory_order_relaxed);
      wake->Signal();
    };
  }

  void RespondCallError(const std::shared_ptr<Conn>& conn,
                        uint64_t request_id, const Status& status) {
    CallResultMsg msg;
    msg.request_id = request_id;
    msg.status = static_cast<uint8_t>(status.code());
    msg.message = status.message();
    SendFrameNow(conn, CallResultFrame(msg));
  }

  // Queues one reply and attempts an immediate nonblocking flush. Applies
  // the same outbound-backlog shed as the completion path, so even a
  // client that only triggers small replies cannot buffer unboundedly.
  void SendNow(const std::shared_ptr<Conn>& conn, const Serializer& payload) {
    std::string frame;
    AppendFrame(payload, &frame);
    SendFrameNow(conn, std::move(frame));
  }

  void SendFrameNow(const std::shared_ptr<Conn>& conn, std::string frame) {
    bool shed_now = false;
    {
      std::lock_guard<std::mutex> g(conn->mu);
      if (conn->dead || conn->draining) return;
      conn->PushLocked(std::move(frame));
      if (conn->out_bytes > opts().max_outbound_bytes) {
        shed_now = conn->ShedLocked("outbound backlog exceeds " +
                                        std::to_string(
                                            opts().max_outbound_bytes) +
                                        " bytes",
                                    linger());
      }
      if (!conn->FlushLocked()) MarkCloseNowLocked(*conn);
    }
    if (shed_now) shared_->shed.fetch_add(1, std::memory_order_relaxed);
  }

  // Protocol violation: answer with one kError frame, then close. The
  // linger deadline bounds how long an unreading peer can pin the
  // connection slot.
  void FatalError(const std::shared_ptr<Conn>& conn, const Status& status) {
    shared_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
    SendFrameNow(conn, ErrorFrame(status));
    std::lock_guard<std::mutex> g(conn->mu);
    conn->draining = true;
    conn->deadline = Clock::now() + linger();
  }

  Database* db_;
  std::shared_ptr<Shared> shared_;
  std::shared_ptr<Wake> wake_;
  const int listen_fd_;  // Owned by Server; -1 on non-accepting loops.
  std::function<void(int)> assign_;
  std::atomic<bool> stop_{false};
  std::mutex inbox_mu_;
  std::vector<int> inbox_;  // Accepted fds awaiting adoption.
  std::vector<std::shared_ptr<Conn>> conns_;  // IO thread only.
};

Server::Server(Database* db, ServerOptions options)
    : db_(db), options_(std::move(options)) {
  PACMAN_CHECK_MSG(db_ != nullptr, "Server needs a database");
  PACMAN_CHECK_MSG(options_.io_threads >= 1, "io_threads must be >= 1");
  PACMAN_CHECK_MSG(options_.max_frame_bytes >= 64,
                   "max_frame_bytes too small for any request");
}

Server::~Server() { Stop(); }

Status Server::Start() {
  std::lock_guard<std::mutex> g(lifecycle_mu_);
  if (running_.load(std::memory_order_acquire)) {
    return Status::AlreadyExists("server already running");
  }

  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (fd < 0) return Status::Internal(Errno("socket"));
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("not a numeric IPv4 address: \"" +
                                   options_.host + "\"");
  }
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status s = Status::Internal(
        Errno(("bind " + options_.host + ":" +
               std::to_string(options_.port)).c_str()));
    close(fd);
    return s;
  }
  if (listen(fd, 256) != 0) {
    const Status s = Status::Internal(Errno("listen"));
    close(fd);
    return s;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    const Status s = Status::Internal(Errno("getsockname"));
    close(fd);
    return s;
  }

  // Establish the executor pool up front when possible; a crashed
  // database gets one lazily at the first call after Recover().
  if (!db_->crashed()) {
    db_->EnsureWorkers(options_.executor_workers, options_.queue_capacity);
  }

  listen_fd_ = fd;
  auto shared = std::make_shared<Shared>();
  shared->db = db_;
  shared->options = options_;
  {
    std::lock_guard<std::mutex> sg(shared_mu_);
    shared_ = shared;
  }

  auto rr = std::make_shared<std::atomic<size_t>>(0);
  auto assign = [this, rr](int conn_fd) {
    const size_t i = rr->fetch_add(1, std::memory_order_relaxed);
    loops_[i % loops_.size()]->Adopt(conn_fd);
  };
  for (uint32_t i = 0; i < options_.io_threads; ++i) {
    loops_.push_back(std::make_unique<IoLoop>(
        db_, shared, i == 0 ? listen_fd_ : -1, assign));
  }
  pool_ = std::make_unique<exec::ThreadPool>(options_.io_threads, "net-io");
  for (std::unique_ptr<IoLoop>& loop : loops_) {
    pool_->Submit([l = loop.get()] { l->Run(); });
  }

  port_.store(ntohs(bound.sin_port), std::memory_order_release);
  running_.store(true, std::memory_order_release);
  return Status::Ok();
}

void Server::Stop() {
  std::lock_guard<std::mutex> g(lifecycle_mu_);
  if (!running_.load(std::memory_order_acquire)) return;
  running_.store(false, std::memory_order_release);
  for (std::unique_ptr<IoLoop>& loop : loops_) loop->RequestStop();
  pool_->WaitIdle();  // Loops close their connections on the way out.
  pool_.reset();
  loops_.clear();
  close(listen_fd_);
  listen_fd_ = -1;
  port_.store(0, std::memory_order_release);
  // shared_ stays: stats() remains readable after Stop, and straggling
  // executor callbacks still hold references.
}

ServerStats Server::stats() const {
  ServerStats out;
  std::shared_ptr<Shared> s;
  {
    std::lock_guard<std::mutex> g(shared_mu_);
    s = shared_;
  }
  if (s == nullptr) return out;
  out.accepted = s->accepted.load(std::memory_order_relaxed);
  out.active = s->active.load(std::memory_order_relaxed);
  out.sessions_open = s->sessions_open.load(std::memory_order_relaxed);
  out.shed = s->shed.load(std::memory_order_relaxed);
  out.protocol_errors = s->protocol_errors.load(std::memory_order_relaxed);
  out.calls = s->calls.load(std::memory_order_relaxed);
  out.call_errors = s->call_errors.load(std::memory_order_relaxed);
  return out;
}

}  // namespace pacman::net
