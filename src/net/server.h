// Copyright (c) 2026 The PACMAN reproduction authors.
// TCP front-end of the engine: serve pacman::Sessions over a wire.
//
//   ┌──────────────────────────────────────────────────────────┐
//   │   clients (bench_net_loadgen, bindings/pacman_client.py) │
//   └──────────────────────────────────────────────────────────┘
//                │ length-prefixed frames (net/protocol.h)
//   ┌──────────────────────────────────────────────────────────┐
//   │  net::Server — poll(2) IO loops on an exec::ThreadPool:  │
//   │  accept, frame reassembly, one Session per connection    │
//   └──────────────────────────────────────────────────────────┘
//                │ Database::PostToService (bounded MPMC queue)
//   ┌──────────────────────────────────────────────────────────┐
//   │  TxnService executors → engine (OCC, group commit, log)  │
//   └──────────────────────────────────────────────────────────┘
//
// Backpressure is first-class and never buffers unboundedly:
//  - submission side: the bounded TxnService queue rejects with the named
//    kOverloaded status (TxnOptions::wait_if_full = false), and the
//    server sheds that client — one kOverloaded frame, then close;
//  - response side: each connection's outbound buffer is capped
//    (max_outbound_bytes); a client that stops draining responses is shed
//    the same way instead of growing the buffer. A million slow clients
//    cost at most max_connections × max_outbound_bytes.
//
// Lifecycle: Start() binds/listens (port 0 = ephemeral, see port()) and
// lazily starts the database's executor pool; Stop() is idempotent and
// closes every live connection. The server tolerates Database::Crash()
// while serving — in-flight submissions drain into the crash point,
// later calls answer kUnavailable, and after Recover() the executor pool
// is re-established on the next call — so a client can reconnect and
// observe recovered state with the server process never restarting.
#ifndef PACMAN_NET_SERVER_H_
#define PACMAN_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "exec/thread_pool.h"
#include "maintenance/checkpoint_service.h"
#include "net/protocol.h"

namespace pacman {
class Database;
}  // namespace pacman

namespace pacman::net {

struct ServerOptions {
  std::string host = "127.0.0.1";  // Numeric IPv4 address to bind.
  uint16_t port = 0;               // 0 = ephemeral; Server::port() tells.
  uint32_t io_threads = 1;         // poll(2) loops (connections sharded).
  // Executor pool established via Database::EnsureWorkers when none is
  // running (an already-running pool is shared, not replaced).
  uint32_t executor_workers = 2;
  size_t queue_capacity = 1024;    // Submission-queue bound.
  uint32_t max_connections = 1024;
  size_t max_frame_bytes = 1u << 20;     // Inbound frame cap.
  size_t max_outbound_bytes = 4u << 20;  // Per-connection response cap.
  // How long a shed connection may linger flushing its kOverloaded frame
  // before the socket is closed regardless.
  int shed_linger_ms = 200;
  // Socket send-buffer size, 0 = OS default. Tests shrink it so the
  // response-side overload path triggers at observable volumes.
  int sndbuf_bytes = 0;
};

// Monotone counters; readable while the server runs.
struct ServerStats {
  uint64_t accepted = 0;          // Connections accepted.
  uint64_t active = 0;            // Currently open connections.
  uint64_t sessions_open = 0;     // Connections holding a Session.
  uint64_t shed = 0;              // Connections shed with kOverloaded.
  uint64_t protocol_errors = 0;   // Connections closed with kError.
  uint64_t calls = 0;             // kCall frames accepted for execution.
  uint64_t call_errors = 0;       // kCall frames answered without running.
  // The database's background maintenance counters
  // (Database::maintenance_stats). Process-local observability only — not
  // surfaced on the wire protocol.
  maintenance::MaintenanceStats maintenance;
  // Durability health, mirrored from the engine (pacman/database.h):
  // whether the database is in read-only degraded mode (and why), plus
  // the logging layer's transient-retry and permanent-failure counters.
  bool read_only = false;
  std::string read_only_reason;
  uint64_t io_retries = 0;   // Transient durable-path faults retried away.
  uint64_t io_failures = 0;  // Durable-path ops that exhausted retries.
};

class Server {
 public:
  // The database must outlive the server; destroy (or Stop) the server
  // before StopWorkers-ing an executor pool it depends on is fine — the
  // server re-establishes one lazily — but before ~Database.
  Server(Database* db, ServerOptions options);
  ~Server();  // Stops if still running.
  PACMAN_DISALLOW_COPY_AND_MOVE(Server);

  // Binds, listens and starts the IO loops. Returns a named error (and
  // starts nothing) if the address cannot be bound.
  Status Start();
  // Closes the listener and every live connection, then joins the IO
  // loops. Idempotent: a second Stop is a no-op.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  // The bound port (resolves an ephemeral-port request); 0 when not
  // running.
  uint16_t port() const { return port_.load(std::memory_order_acquire); }
  const ServerOptions& options() const { return options_; }

  ServerStats stats() const;

 private:
  struct Shared;  // Stats + wakeups shared with completion callbacks.
  class IoLoop;

  Database* db_;
  ServerOptions options_;
  std::shared_ptr<Shared> shared_;
  std::vector<std::unique_ptr<IoLoop>> loops_;
  std::unique_ptr<exec::ThreadPool> pool_;
  mutable std::mutex lifecycle_mu_;  // Serializes Start/Stop.
  // Guards only the shared_ pointer itself, so stats() never waits behind
  // a Stop() holding lifecycle_mu_ across the connection drain.
  mutable std::mutex shared_mu_;
  std::atomic<bool> running_{false};
  std::atomic<uint16_t> port_{0};
  int listen_fd_ = -1;
};

}  // namespace pacman::net

#endif  // PACMAN_NET_SERVER_H_
