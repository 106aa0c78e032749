// Copyright (c) 2026 The PACMAN reproduction authors.
// Load generator for the network front-end (src/net/): drives a
// bank_server-shaped database over real TCP sockets and reports
// throughput plus client-observed latency percentiles — the end-to-end
// numbers the in-process benches cannot see (framing, syscalls, the
// submission queue, completion callbacks and the wire back).
//
// Three sections:
//   net_open_session_cost      — connect+hello+open-session round trips.
//   net_latency_vs_connections — closed-loop clients (pipeline window 8)
//       swept over connection counts; txn/s and p50/p99/p999 per point.
//   net_slow_client_shed       — one deliberately non-draining client
//       among fast ones: the server must shed it (kOverloaded) while the
//       fast clients' throughput stays near the undisturbed baseline.
//
// By default the server runs in-process on an ephemeral port (so the
// bench is self-contained and CI-runnable); --port N targets an already
// running external server instead (e.g. examples/bank_server), in which
// case the shed section is skipped — it needs control over the server's
// backpressure knobs. Usage:
//
//   bench_net_loadgen [--connections N] [--txns N] [--threads N]
//                     [--host A --port N] [--json PATH]
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/flags.h"
#include "net/protocol.h"
#include "net/server.h"
#include "workload/bank.h"

namespace pacman::bench {
namespace {

using net::CallResultMsg;

// Blocking protocol client (mirrors bindings/pacman_client.py).
class WireClient {
 public:
  ~WireClient() {
    if (fd_ >= 0) close(fd_);
  }

  bool Open(const std::string& host, uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return false;
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return false;
    }
    if (!SendFrame(net::HelloFrame())) return false;
    std::vector<uint8_t> p;
    if (!RecvFrame(&p) || p.empty() ||
        p[0] != static_cast<uint8_t>(net::MsgType::kHelloOk)) {
      return false;
    }
    Serializer open;
    open.PutU8(static_cast<uint8_t>(net::MsgType::kOpenSession));
    std::string wire;
    net::AppendFrame(open, &wire);
    if (!SendFrame(wire)) return false;
    return RecvFrame(&p) && !p.empty() &&
           p[0] == static_cast<uint8_t>(net::MsgType::kSessionOpened);
  }

  bool GetProc(const std::string& name, uint32_t* id) {
    Serializer s;
    s.PutU8(static_cast<uint8_t>(net::MsgType::kGetProc));
    s.PutString(name);
    std::string wire;
    net::AppendFrame(s, &wire);
    if (!SendFrame(wire)) return false;
    std::vector<uint8_t> p;
    if (!RecvFrame(&p) || p.empty() ||
        p[0] != static_cast<uint8_t>(net::MsgType::kProcInfo)) {
      return false;
    }
    Deserializer d(p.data() + 1, p.size() - 1);
    uint8_t status = 0;
    std::string msg;
    if (!d.GetU8(&status).ok() || !d.GetString(&msg).ok()) return false;
    return status == 0 && d.GetU32(id).ok();
  }

  bool SendCall(uint64_t request_id, uint32_t proc,
                const std::vector<Value>& args) {
    return SendFrame(net::CallFrame(request_id, proc, 0, args));
  }

  bool RecvCallResult(CallResultMsg* out) {
    std::vector<uint8_t> p;
    if (!RecvFrame(&p) || p.empty() ||
        p[0] != static_cast<uint8_t>(net::MsgType::kCallResult)) {
      return false;
    }
    Deserializer d(p.data() + 1, p.size() - 1);
    return net::ParseCallResult(&d, out).ok();
  }

  bool SendFrame(const std::string& wire) {
    const char* p = wire.data();
    size_t n = wire.size();
    while (n > 0) {
      const ssize_t w = send(fd_, p, n, MSG_NOSIGNAL);
      if (w <= 0) return false;
      p += w;
      n -= static_cast<size_t>(w);
    }
    return true;
  }

 private:
  bool RecvFrame(std::vector<uint8_t>* payload) {
    uint32_t len = 0;
    if (!RecvExact(&len, sizeof(len))) return false;
    if (len == 0 || len > net::kFrameLimit) return false;
    payload->resize(len);
    return RecvExact(payload->data(), len);
  }
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

struct Percentiles {
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

Percentiles ComputePercentiles(std::vector<double>* latencies) {
  Percentiles out;
  if (latencies->empty()) return out;
  std::sort(latencies->begin(), latencies->end());
  auto at = [&](double p) {
    const size_t idx =
        static_cast<size_t>(p * static_cast<double>(latencies->size()));
    return (*latencies)[std::min(idx, latencies->size() - 1)];
  };
  out.p50 = at(0.50);
  out.p99 = at(0.99);
  out.p999 = at(0.999);
  return out;
}

std::string PercentileJson(const Percentiles& p) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                ", \"p50_us\": %.1f, \"p99_us\": %.1f, \"p999_us\": %.1f",
                p.p50, p.p99, p.p999);
  return buf;
}

struct ClientResult {
  uint64_t committed = 0;
  uint64_t failed = 0;
  std::vector<double> latencies_us;  // One per completed call.
  bool died = false;                 // Connection closed mid-run (shed).
};

// One closed-loop client: keeps up to `window` calls in flight and
// measures submission->result latency per call. Results may return out
// of order across the executor pool, so latencies index by request id.
ClientResult RunClient(const std::string& host, uint16_t port,
                       const workload::Bank& bank, uint32_t wire_transfer,
                       uint32_t wire_deposit, uint64_t txns, uint64_t seed,
                       size_t window = 8) {
  ClientResult out;
  WireClient c;
  if (!c.Open(host, port)) {
    out.died = true;
    return out;
  }
  Rng rng(seed);
  std::vector<Value> params;
  std::vector<std::chrono::steady_clock::time_point> sent(txns);
  out.latencies_us.reserve(txns);
  uint64_t next_id = 0;
  uint64_t done = 0;
  uint64_t inflight = 0;
  while (done < txns) {
    while (next_id < txns && inflight < window) {
      params.clear();
      const ProcId proc = bank.NextTransaction(&rng, &params);
      sent[next_id] = std::chrono::steady_clock::now();
      const uint32_t wire_proc =
          proc == bank.transfer_id() ? wire_transfer : wire_deposit;
      if (!c.SendCall(next_id, wire_proc, params)) {
        out.died = true;
        return out;
      }
      next_id++;
      inflight++;
    }
    CallResultMsg r;
    if (!c.RecvCallResult(&r)) {
      out.died = true;
      return out;
    }
    inflight--;
    done++;
    const auto now = std::chrono::steady_clock::now();
    if (r.request_id < txns) {
      out.latencies_us.push_back(
          std::chrono::duration<double, std::micro>(now - sent[r.request_id])
              .count());
    }
    if (r.status == 0) {
      out.committed++;
    } else {
      out.failed++;
    }
  }
  return out;
}

// Runs `conns` concurrent closed-loop clients; returns aggregate
// committed count, wall seconds and merged latency distribution.
struct SweepPoint {
  uint64_t committed = 0;
  uint64_t failed = 0;
  uint64_t died = 0;
  double wall_seconds = 0.0;
  std::vector<double> latencies_us;
};

SweepPoint RunClients(const std::string& host, uint16_t port,
                      const workload::Bank& bank, uint32_t wire_transfer,
                      uint32_t wire_deposit, uint32_t conns,
                      uint64_t txns_per_conn, uint64_t seed) {
  std::vector<ClientResult> results(conns);
  std::vector<std::thread> threads;
  threads.reserve(conns);
  const auto t0 = std::chrono::steady_clock::now();
  for (uint32_t i = 0; i < conns; ++i) {
    threads.emplace_back([&, i] {
      results[i] = RunClient(host, port, bank, wire_transfer, wire_deposit,
                             txns_per_conn, seed + i);
    });
  }
  for (std::thread& t : threads) t.join();
  const auto t1 = std::chrono::steady_clock::now();

  SweepPoint point;
  point.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  for (ClientResult& r : results) {
    point.committed += r.committed;
    point.failed += r.failed;
    point.died += r.died ? 1 : 0;
    point.latencies_us.insert(point.latencies_us.end(),
                              r.latencies_us.begin(), r.latencies_us.end());
  }
  return point;
}

}  // namespace
}  // namespace pacman::bench

int main(int argc, char** argv) {
  using namespace pacman;        // NOLINT: bench brevity.
  using namespace pacman::bench;  // NOLINT

  CommonFlags defaults;
  defaults.threads = 4;      // Executor workers of the in-process server.
  defaults.txns = 2000;      // Per connection, per sweep point.
  defaults.connections = 8;  // Sweep upper bound.
  defaults.seed = 2026;
  const CommonFlags flags = ParseCommonFlags(argc, argv, defaults);
  SetDeviceFlags(flags);

  PrintTitle("Network front-end load generator (real TCP sockets)");

  // The client-side request generator; the config must match what the
  // server installed (bank_server uses the same numbers).
  workload::Bank bank({.num_users = 10000, .num_nations = 16,
                       .single_fraction = 0.1});
  // Populate the generator's procedure ids without needing a database:
  // register against a throwaway catalog (ids on the wire come from
  // kGetProc, so only the transfer/deposit distinction matters here).
  storage::Catalog scratch_catalog;
  proc::ProcedureRegistry scratch_registry(&scratch_catalog);
  bank.CreateTables(&scratch_catalog);
  bank.RegisterProcedures(&scratch_registry);

  // In-process server on an ephemeral port unless --port points at an
  // external one.
  std::unique_ptr<Database> db;
  std::unique_ptr<net::Server> server;
  std::string host = flags.host;
  uint16_t port = flags.port;
  const bool in_process = (port == 0);
  if (in_process) {
    db = std::make_unique<Database>(DefaultDbOptions(logging::LogScheme::kCommand));
    ExitIfUnrecoveredState(db.get());
    workload::Bank server_bank(bank.config());
    server_bank.Install(db.get());
    db->FinalizeSchema();
    PACMAN_CHECK(db->TryTakeCheckpoint().ok());
    net::ServerOptions sopts;
    sopts.io_threads = 2;
    sopts.executor_workers = flags.threads;
    server = std::make_unique<net::Server>(db.get(), sopts);
    PACMAN_CHECK(server->Start().ok());
    host = sopts.host;
    port = server->port();
    std::printf("in-process server on %s:%u (%u executor workers)\n\n",
                host.c_str(), port, flags.threads);
  } else {
    std::printf("external server %s:%u\n\n", host.c_str(), port);
  }

  // Resolve the wire procedure ids once.
  uint32_t wire_transfer = 0;
  uint32_t wire_deposit = 0;
  {
    WireClient probe;
    PACMAN_CHECK_MSG(probe.Open(host, port), "cannot reach the server");
    PACMAN_CHECK(probe.GetProc("Transfer", &wire_transfer));
    PACMAN_CHECK(probe.GetProc("Deposit", &wire_deposit));
  }

  // --- Section 1: session-establishment cost -----------------------------
  {
    constexpr int kProbes = 50;
    std::vector<double> us;
    us.reserve(kProbes);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kProbes; ++i) {
      const auto a = std::chrono::steady_clock::now();
      WireClient c;
      PACMAN_CHECK(c.Open(host, port));
      const auto b = std::chrono::steady_clock::now();
      us.push_back(std::chrono::duration<double, std::micro>(b - a).count());
    }
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    Percentiles p = ComputePercentiles(&us);
    std::printf(
        "open session: %d probes, p50 %.0fus p99 %.0fus "
        "(connect+hello+open)\n\n",
        kProbes, p.p50, p.p99);
    RecordJson({"net_open_session_cost", "command", 1,
                static_cast<uint64_t>(kProbes), kProbes / wall, 0.0, 0.0,
                0.0, wall, PercentileJson(p)});
  }

  // --- Section 2: latency vs connection count ----------------------------
  std::printf("%-12s %12s %12s %10s %10s %10s %8s\n", "connections",
              "committed", "txn/s", "p50(us)", "p99(us)", "p999(us)",
              "failed");
  std::vector<uint32_t> sweep;
  for (uint32_t c = 1; c < flags.connections; c *= 2) sweep.push_back(c);
  sweep.push_back(flags.connections);
  for (uint32_t conns : sweep) {
    SweepPoint point =
        RunClients(host, port, bank, wire_transfer, wire_deposit, conns,
                   flags.txns, flags.seed);
    PACMAN_CHECK_MSG(point.died == 0,
                     "well-behaved load-gen client was disconnected");
    Percentiles p = ComputePercentiles(&point.latencies_us);
    const double tput =
        point.wall_seconds > 0.0 ? point.committed / point.wall_seconds : 0.0;
    std::printf("%-12u %12llu %12.0f %10.0f %10.0f %10.0f %8llu\n", conns,
                static_cast<unsigned long long>(point.committed), tput, p.p50,
                p.p99, p.p999, static_cast<unsigned long long>(point.failed));
    RecordJson({"net_latency_vs_connections", "command", conns,
                point.committed, tput, 0.0, 0.0, 0.0, point.wall_seconds,
                PercentileJson(p)});
  }
  std::printf("\n");

  // --- Section 3: slow-client shedding -----------------------------------
  // Needs its own server with tight backpressure limits, so the slow
  // client trips the outbound cap at bench-sized volumes; skipped when
  // driving an external server.
  if (in_process) {
    auto shed_db = std::make_unique<Database>(
        DefaultDbOptions(logging::LogScheme::kCommand));
    ExitIfUnrecoveredState(shed_db.get());
    workload::Bank shed_bank(bank.config());
    shed_bank.Install(shed_db.get());
    shed_db->FinalizeSchema();
    PACMAN_CHECK(shed_db->TryTakeCheckpoint().ok());
    net::ServerOptions sopts;
    sopts.io_threads = 2;
    sopts.executor_workers = flags.threads;
    sopts.max_outbound_bytes = 32 * 1024;
    sopts.sndbuf_bytes = 8 * 1024;
    sopts.shed_linger_ms = 50;
    net::Server shed_server(shed_db.get(), sopts);
    PACMAN_CHECK(shed_server.Start().ok());
    const uint16_t shed_port = shed_server.port();
    const uint32_t fast = std::max(1u, flags.connections / 2);

    // Baseline: fast clients alone.
    SweepPoint base = RunClients(host, shed_port, bank, wire_transfer,
                                 wire_deposit, fast, flags.txns, flags.seed);
    const double base_tput =
        base.wall_seconds > 0.0 ? base.committed / base.wall_seconds : 0.0;

    // Same fast clients, now sharing the server with a firehose client
    // that never reads a single response.
    std::atomic<bool> slow_done{false};
    std::thread slow([&] {
      WireClient c;
      if (!c.Open(host, shed_port)) return;
      Rng rng(flags.seed + 7777);
      std::vector<Value> params;
      for (uint64_t i = 0; i < flags.txns * 100; ++i) {
        params.clear();
        const ProcId proc = bank.NextTransaction(&rng, &params);
        const uint32_t wire_proc =
            proc == bank.transfer_id() ? wire_transfer : wire_deposit;
        if (!c.SendCall(i, wire_proc, params)) break;  // Shed: server closed.
      }
      slow_done.store(true);
    });
    SweepPoint contended =
        RunClients(host, shed_port, bank, wire_transfer, wire_deposit, fast,
                   flags.txns, flags.seed + 1);
    slow.join();
    const double cont_tput = contended.wall_seconds > 0.0
                                 ? contended.committed / contended.wall_seconds
                                 : 0.0;
    const double ratio = base_tput > 0.0 ? cont_tput / base_tput : 0.0;
    const uint64_t shed_count = shed_server.stats().shed;
    std::printf(
        "slow-client shed: baseline %.0f txn/s (%u clients), with slow "
        "client %.0f txn/s (ratio %.2f), shed=%llu\n",
        base_tput, fast, cont_tput, ratio,
        static_cast<unsigned long long>(shed_count));
    PACMAN_CHECK_MSG(shed_count >= 1,
                     "the non-draining client was never shed");
    char extra[160];
    std::snprintf(extra, sizeof(extra),
                  ", \"shed\": %llu, \"fast_tput_ratio\": %.3f",
                  static_cast<unsigned long long>(shed_count), ratio);
    RecordJson({"net_slow_client_shed", "baseline", fast, base.committed,
                base_tput, 0.0, 0.0, 0.0, base.wall_seconds, ""});
    RecordJson({"net_slow_client_shed", "with_slow_client", fast,
                contended.committed, cont_tput, 0.0, 0.0, 0.0,
                contended.wall_seconds, extra});
    shed_server.Stop();
  }

  WriteJsonReport(flags.json, "net_loadgen");
  return 0;
}
