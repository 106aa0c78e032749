#include "round.h"

#include <malloc.h>
#include <stdlib.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>

#include "device/file_device.h"
#include "exec/thread_pool.h"
#include "net/server.h"
#include "pacman/database.h"
#include "recovery/log_pipeline.h"
#include "timing_device.h"
#include "trace.h"
#include "wire_client.h"
#include "workload/bank.h"
#include "workload/smallbank.h"
#include "workload/tpcc.h"

namespace pacman::e2e {

static_assert(std::is_trivially_copyable_v<RoundResult>);

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Independent, reproducible stream seeds: (round seed, stream, client).
uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Sizes keep one round to a few seconds on a 4-vCPU host (smallbank_large:
// about 12) and its process under about 900 MB: TPC-C grows by roughly
// 10 KB per transaction, because old versions are never collected.
constexpr WorkloadSpec kWorkloads[] = {
    {.name = "bank_wire",
     .traffic = Traffic::kBank,
     .log = logging::LogScheme::kCommand,
     .recovery = recovery::Scheme::kClrP,
     .wire = true,
     .warmup_txns = 10000,
     .forward_txns = 100000,
     .round_s = 3.1},
    {.name = "tpcc_command",
     .traffic = Traffic::kTpcc,
     .log = logging::LogScheme::kCommand,
     .recovery = recovery::Scheme::kClrP,
     .warmup_txns = 10000,
     .forward_txns = 50000,
     .round_s = 2.5},
    {.name = "tpcc_logical",
     .traffic = Traffic::kTpcc,
     .log = logging::LogScheme::kLogical,
     .recovery = recovery::Scheme::kLlrP,
     .warmup_txns = 10000,
     .forward_txns = 50000,
     .round_s = 3.0},
    {.name = "smallbank_large",
     .traffic = Traffic::kSmallbankLarge,
     .log = logging::LogScheme::kCommand,
     .recovery = recovery::Scheme::kClrP,
     .warmup_txns = 10000,
     .forward_txns = 300000,
     // About 43 log bytes per call: one background checkpoint fires
     // 60% into the forward phase and a second never comes before it ends,
     // so every round pays for exactly one.
     .checkpoint_log_bytes = 8ull << 20,
     .tail_txns = 2000,
     .round_s = 12.0},
};

constexpr bool WindowsFit() {
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.forward_txns / kWindowTxns > kMaxWindows) return false;
  }
  return true;
}
static_assert(WindowsFit(), "raise kMaxWindows");

// The generated inputs: what Install loads and what each call sends.
struct TrafficFns {
  std::function<void(Database*)> install;
  TxnGenerator next;
};

template <class W>
TrafficFns Bind(std::shared_ptr<W> w) {
  return {[w](Database* db) { w->Install(db); },
          [w](Rng* rng, std::vector<Value>* params) {
            return w->NextTransaction(rng, params);
          }};
}

TrafficFns MakeTraffic(Traffic t) {
  switch (t) {
    case Traffic::kBank:
      return Bind(std::make_shared<workload::Bank>(workload::BankConfig{
          .num_users = 10000, .num_nations = 16, .single_fraction = 0.1}));
    case Traffic::kTpcc:
      return Bind(std::make_shared<workload::Tpcc>(workload::TpccConfig{}));
    case Traffic::kSmallbankLarge:
      // 600k accounts = 1.8M rows; the loaded tables take about 670 MB
      // (storage.table_mb), over twice the host's 300 MB L3. 10% of calls
      // hit 100 hot accounts.
      return Bind(
          std::make_shared<workload::Smallbank>(workload::SmallbankConfig{
              .num_accounts = 600000,
              .hotspot_fraction = 0.1,
              .hotspot_size = 100}));
  }
  return {};
}

// A /proc/self/status memory line in MB: "VmHWM:" is the peak resident set
// (since the last clear_refs reset), "VmRSS:" the current one.
double StatusMb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0) {
      return std::strtod(line.c_str() + n, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::mutex g_checks_mu;
std::map<std::string, bool> g_checks;

// A fresh directory under `parent`, removed with everything in it.
class TempDir {
 public:
  explicit TempDir(const std::string& parent) {
    std::string tmpl = parent + "/round-XXXXXX";
    if (mkdtemp(tmpl.data()) != nullptr) path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    if (!path_.empty()) std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Counters read before and after the forward phase.
struct Counters {
  uint64_t disk_bytes = 0;
  uint64_t fsyncs = 0;
  uint64_t log_bytes = 0;
  double flush_s = 0.0;
  uint64_t aborts = 0;
  uint64_t lock_waits = 0;
  maintenance::MaintenanceStats maint;
};

Counters ReadCounters(Database* db,
                      const std::vector<const device::StorageDevice*>& disks) {
  Counters c;
  for (const device::StorageDevice* d : disks) {
    c.disk_bytes += d->total_bytes_written();
    c.fsyncs += d->total_fsyncs();
  }
  c.log_bytes = db->log_bytes();
  c.flush_s = db->total_flush_seconds();
  c.aborts = db->txn_manager()->num_aborts();
  c.lock_waits = db->txn_manager()->num_commit_lock_waits();
  c.maint = db->maintenance_stats();
  return c;
}

// One client's connection to the database.
class Client {
 public:
  virtual ~Client() = default;
  // Makes one call. False when no result came back; the client stops.
  virtual bool Call(ProcId proc, const std::vector<Value>& params,
                    TxnResult* out) = 0;
};

// In process: a Session, calling on the client's own thread.
class SessionClient final : public Client {
 public:
  explicit SessionClient(Database* db) : session_(db->OpenSession()) {
    for (ProcId id = 0; id < db->num_procedures(); ++id) {
      handles_.push_back(db->proc(id));
    }
  }
  bool Call(ProcId proc, const std::vector<Value>& params,
            TxnResult* out) override {
    ScopedSpan span("session.call");
    *out = session_->Call(handles_[proc], params);
    return true;
  }

 private:
  std::unique_ptr<Session> session_;
  std::vector<ProcHandle> handles_;
};

// Over the wire: one connection, each call matched to its result by
// request id.
class WireCaller final : public Client {
 public:
  WireCaller(WireClient* conn, const std::vector<uint32_t>* wire_ids)
      : conn_(conn), wire_ids_(wire_ids) {}
  bool Call(ProcId proc, const std::vector<Value>& params,
            TxnResult* out) override {
    ScopedSpan span("net.call");
    const uint64_t id = sent_++;
    net::CallResultMsg msg;
    if (!conn_->Send(net::CallFrame(id, (*wire_ids_)[proc], 0, params)) ||
        !conn_->RecvCallResult(&msg)) {
      dropped_ = true;
      return false;
    }
    received_++;
    if (msg.request_id != id) {
      mismatched_ = true;
      return false;
    }
    out->status =
        msg.status == 0 ? Status::Ok() : Status::Internal(msg.message);
    out->attempts = static_cast<int>(msg.attempts);
    return true;
  }

  uint64_t sent() const { return sent_; }
  uint64_t received() const { return received_; }
  bool dropped() const { return dropped_; }
  bool mismatched() const { return mismatched_; }

 private:
  WireClient* conn_;
  const std::vector<uint32_t>* wire_ids_;
  uint64_t sent_ = 0;
  uint64_t received_ = 0;
  bool dropped_ = false;
  bool mismatched_ = false;
};

// One measured call.
struct Sample {
  int64_t done_ns;    // steady_clock time the call returned.
  double latency_us;
  double late_us;     // Client's own time since its previous call returned.
  ProcId proc;
};

struct LoopTotals {
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;
};

// Closed loop: one thread per client, each with one call in flight, `txns`
// calls in all. With `samples` set, every call is kept.
LoopTotals ClosedLoop(const std::vector<std::unique_ptr<Client>>& clients,
                      const TxnGenerator& next, uint64_t seed, uint64_t txns,
                      std::vector<Sample>* samples) {
  const size_t nc = clients.size();
  std::vector<LoopTotals> totals(nc);
  std::vector<std::vector<Sample>> per(nc);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < nc; ++c) {
    threads.emplace_back([&, c] {
      LoopTotals& t = totals[c];
      const uint64_t n = txns / nc + (c < txns % nc ? 1 : 0);
      if (samples != nullptr) per[c].reserve(n);
      Rng rng(Mix(seed, c));
      std::vector<Value> params;
      TxnResult res;
      Clock::time_point prev_end = Clock::now();
      for (uint64_t i = 0; i < n; ++i) {
        const ProcId proc = next(&rng, &params);
        const Clock::time_point start = Clock::now();
        t.attempted++;
        if (!clients[c]->Call(proc, params, &res)) {
          t.failed++;
          return;
        }
        const Clock::time_point end = Clock::now();
        if (samples != nullptr) {
          per[c].push_back({end.time_since_epoch().count(),
                            Micros(start, end), Micros(prev_end, start), proc});
        }
        prev_end = end;
        if (res.ok()) {
          t.committed++;
          t.retries += static_cast<uint64_t>(std::max(res.attempts - 1, 0));
        } else {
          t.failed++;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopTotals sum;
  for (size_t c = 0; c < nc; ++c) {
    sum.attempted += totals[c].attempted;
    sum.committed += totals[c].committed;
    sum.failed += totals[c].failed;
    sum.retries += totals[c].retries;
    if (samples != nullptr) {
      samples->insert(samples->end(), per[c].begin(), per[c].end());
    }
  }
  return sum;
}

// Cuts the forward phase, in completion order, into windows of
// kWindowTxns calls: each window's throughput (over the time since the
// previous window ended) and latency percentiles.
void FillWindows(std::vector<Sample> samples, int64_t start_ns,
                 size_t num_procs, RoundResult* out) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.done_ns < b.done_ns;
            });
  int64_t prev = start_ns;
  std::vector<double> lat;
  std::vector<std::vector<double>> by_proc(num_procs);
  out->num_windows = 0;
  for (size_t i = 0; i + kWindowTxns <= samples.size() &&
                     out->num_windows < kMaxWindows;
       i += kWindowTxns) {
    lat.clear();
    for (auto& v : by_proc) v.clear();
    for (size_t j = i; j < i + kWindowTxns; ++j) {
      lat.push_back(samples[j].latency_us);
      by_proc[samples[j].proc].push_back(samples[j].latency_us);
    }
    const int64_t end = samples[i + kWindowTxns - 1].done_ns;
    Window& win = out->windows[out->num_windows++];
    win.txn_per_s = static_cast<double>(kWindowTxns) /
                    (static_cast<double>(end - prev) * 1e-9);
    win.p50_us = 0.0;
    for (const std::vector<double>& v : by_proc) {
      win.p50_us += Percentile(v, 0.50) * static_cast<double>(v.size()) /
                    static_cast<double>(kWindowTxns);
    }
    win.p99_us = Percentile(lat, 0.99);
    prev = end;
  }
}

// Times a standalone load of the crashed log and a read of every
// checkpoint stripe, over the same devices Recover() would read.
void RecoveryProbes(Database* db, const WorkloadSpec& w, RoundResult* out) {
  logging::CheckpointMeta meta;
  Check("probe.checkpoint_meta",
        db->checkpointer()->ReadLatestMeta(&meta).ok());
  {
    exec::ThreadPool pool(kRecoveryThreads, "probe");
    recovery::LogPipelineOptions lo;
    lo.num_threads = kRecoveryThreads;
    lo.checkpoint_ts = meta.ts;
    lo.num_ssds = meta.num_ssds;
    recovery::PipelinedLogLoader loader(w.log, db->device_ptrs(), &pool, lo);
    const Clock::time_point t0 = Clock::now();
    Status s;
    {
      ScopedSpan span("recovery.log_load");
      loader.Start();
      s = loader.WaitAll();
    }
    out->probe_load_s = Since(t0);
    Check("probe.log_load", s.ok(), s.message());
    for (const recovery::GlobalBatch& b : loader.batches()) {
      for (const auto& [device, bytes] : b.files) {
        out->probe_load_bytes += bytes;
      }
    }
  }
  const Clock::time_point t0 = Clock::now();
  bool ok = true;
  {
    ScopedSpan span("recovery.ckpt_read");
    for (uint32_t d = 0; d < meta.num_ssds; ++d) {
      for (uint32_t f = 0; f < meta.files_per_ssd; ++f) {
        logging::CheckpointStripe stripe;
        ok = ok && db->checkpointer()->ReadStripe(meta, d, f, &stripe).ok();
      }
    }
  }
  out->probe_ckpt_read_s = Since(t0);
  Check("probe.ckpt_read", ok);
}

}  // namespace

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const size_t k = std::min(
      v.size() - 1, static_cast<size_t>(p * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> out;
  for (const WorkloadSpec& w : kWorkloads) out.push_back(w.name);
  return out;
}

void Check(const std::string& name, bool ok, const std::string& detail) {
  std::lock_guard<std::mutex> g(g_checks_mu);
  auto [it, inserted] = g_checks.emplace(name, ok);
  if (!ok && (inserted || it->second)) {
    it->second = false;
    std::printf("info check %s failed: %s\n", name.c_str(), detail.c_str());
  }
}

std::map<std::string, bool> Checks() {
  std::lock_guard<std::mutex> g(g_checks_mu);
  return g_checks;
}

RoundResult RunRound(const WorkloadSpec& w, uint64_t seed,
                     const std::string& dir, bool traced) {
  RoundResult out{};
  out.traced = traced;
  Tracer::Get().set_enabled(traced);
  TempDir tmp(dir);
  Check("round.scratch_dir", !tmp.path().empty(), dir);
  if (tmp.path().empty()) return out;

  // Flush policy: two FileDevices, engine-default group commit
  // (commits_per_epoch = 200, epochs_per_batch = 5). Each set-up gets
  // fresh devices under its own directory.
  std::string dev_dir;
  std::vector<const device::StorageDevice*> disks;
  DatabaseOptions opts;
  opts.scheme = w.log;
  opts.num_ssds = 2;
  opts.device_factory =
      [&](uint32_t i) -> std::unique_ptr<device::StorageDevice> {
    device::FileDeviceConfig cfg;
    cfg.dir = dev_dir + "/dev" + std::to_string(i);
    auto file = std::make_unique<device::FileDevice>(cfg);
    disks.push_back(file.get());
    if (!traced) return file;
    return std::make_unique<TimingDevice>(std::move(file));
  };
  // Background checkpoint cycles, reported on the maintenance thread.
  struct CycleTotals {
    double seconds = 0.0;
    uint64_t bytes = 0;
  };
  std::mutex cycles_mu;
  CycleTotals cycles;
  opts.checkpoint_log_bytes = w.checkpoint_log_bytes;
  opts.checkpoint_event_hook = [&](const maintenance::CheckpointEvent& ev) {
    std::lock_guard<std::mutex> g(cycles_mu);
    cycles.seconds += ev.seconds;
    cycles.bytes += ev.checkpoint_bytes;
  };
  auto read_cycles = [&] {
    std::lock_guard<std::mutex> g(cycles_mu);
    return cycles;
  };

  // Set-up, kSetupsPerRound times: every database but the last is dropped,
  // its free memory handed back to the OS and its files removed, so a
  // later set-up faults its pages in again as the first one did. The last
  // one is the round's database.
  TrafficFns traffic = MakeTraffic(w.traffic);
  std::unique_ptr<Database> db;
  for (uint32_t k = 0; k < kSetupsPerRound; ++k) {
    if (db != nullptr) {
      db.reset();
      malloc_trim(0);
      std::error_code ec;
      std::filesystem::remove_all(dev_dir, ec);
    }
    disks.clear();
    dev_dir = tmp.path() + "/setup" + std::to_string(k);
    // Count the round's peak RSS from the set-up it keeps.
    std::ofstream("/proc/self/clear_refs") << "5";
    ScopedPhase phase("setup", Phase::kOther);
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span("db.open");
      db = std::make_unique<Database>(opts);
    }
    Check("setup.fresh_devices", !db->opened_existing_state());
    const double rss0 = StatusMb("VmRSS:");
    Clock::time_point t = Clock::now();
    {
      ScopedSpan span("storage.install");
      traffic.install(db.get());
    }
    out.install_s = Since(t);
    t = Clock::now();
    {
      ScopedSpan span("analysis.finalize");
      db->FinalizeSchema();
    }
    out.finalize_s = Since(t);
    out.table_mb = StatusMb("VmRSS:") - rss0;
    logging::CheckpointMeta meta;
    {
      ScopedSpan span("ckpt.take");
      Check("setup.checkpoint", db->TryTakeCheckpoint(&meta).ok());
    }
    out.setup_s[k] = Since(t0);
  }
  out.gdg_blocks = db->gdg().NumBlocks();

  // Recovery restores the newest checkpoint and replays the log after it.
  // Taken after the warm-up, it makes the replayed log exactly the
  // measured forward phase (or, with background checkpoints, a fixed tail).
  auto checkpoint = [&](const char* check) {
    logging::CheckpointMeta meta;
    ScopedSpan span("ckpt.take");
    Check(check, db->TryTakeCheckpoint(&meta).ok());
  };

  // The clients: in-process sessions, or connections to a server on this
  // database (one IO thread, two executors).
  std::unique_ptr<net::Server> server;
  std::vector<std::unique_ptr<WireClient>> conns;
  std::vector<uint32_t> wire_ids(db->num_procedures(), 0);
  std::vector<WireCaller*> callers;
  std::vector<std::unique_ptr<Client>> clients;
  auto wire_bytes = [&] {
    uint64_t n = 0;
    for (const auto& c : conns) n += c->bytes_sent() + c->bytes_received();
    return n;
  };
  if (w.wire) {
    net::ServerOptions so;
    so.io_threads = 1;
    so.executor_workers = 2;
    server = std::make_unique<net::Server>(db.get(), so);
    const Status started = server->Start();
    Check("wire.server_start", started.ok(), started.message());
    if (!started.ok()) return out;
    for (uint32_t c = 0; c < kClients; ++c) {
      conns.push_back(std::make_unique<WireClient>());
      Check("wire.connect", conns.back()->Open(server->port(), 10.0));
      auto caller =
          std::make_unique<WireCaller>(conns.back().get(), &wire_ids);
      callers.push_back(caller.get());
      clients.push_back(std::move(caller));
    }
    for (ProcId id = 0; id < db->num_procedures(); ++id) {
      Check("wire.get_proc",
            conns[0]->GetProc(db->procedure_name(id), &wire_ids[id]));
    }
  } else {
    for (uint32_t c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<SessionClient>(db.get()));
    }
  }

  // The background checkpoint service runs with the executor pool, so the
  // pool is started (and left idle) when the workload wants the service.
  const bool maint = w.checkpoint_log_bytes > 0;
  if (maint) db->StartWorkers(1);
  const LoopTotals warm =
      ClosedLoop(clients, traffic.next, Mix(seed, 1), w.warmup_txns, nullptr);
  Check("txn.warmup_committed", warm.failed == 0);
  if (!maint) checkpoint("warmup.checkpoint");

  const Counters c0 = ReadCounters(db.get(), disks);
  const CycleTotals cycles0 = read_cycles();
  const uint64_t wire0 = wire_bytes();
  std::vector<Sample> samples;
  const Clock::time_point t0 = Clock::now();
  LoopTotals fwd;
  {
    ScopedPhase phase("forward", Phase::kForward);
    fwd = ClosedLoop(clients, traffic.next, Mix(seed, 2), w.forward_txns,
                     &samples);
  }
  out.forward_s = Since(t0);
  const Counters c1 = ReadCounters(db.get(), disks);
  const CycleTotals cycles1 = read_cycles();
  out.attempted = fwd.attempted;
  out.committed = fwd.committed;
  out.failed = fwd.failed;
  out.retries = fwd.retries;
  FillWindows(samples, t0.time_since_epoch().count(), db->num_procedures(),
              &out);
  std::vector<double> latency;
  std::vector<double> late;
  for (const Sample& x : samples) {
    latency.push_back(x.latency_us);
    late.push_back(x.late_us);
  }
  out.call_p999_us = Percentile(std::move(latency), 0.999);
  out.late_p99_us = Percentile(std::move(late), 0.99);
  out.disk_bytes = c1.disk_bytes - c0.disk_bytes;
  out.fsyncs = c1.fsyncs - c0.fsyncs;
  out.log_bytes = c1.log_bytes - c0.log_bytes;
  out.flush_s = c1.flush_s - c0.flush_s;
  out.aborts = c1.aborts - c0.aborts;
  out.lock_waits = c1.lock_waits - c0.lock_waits;
  out.wire_bytes = wire_bytes() - wire0;
  out.maint_checkpoints = c1.maint.checkpoints - c0.maint.checkpoints;
  out.maint_failures =
      c1.maint.checkpoint_failures - c0.maint.checkpoint_failures;
  out.maint_truncated_bytes =
      c1.maint.batch_bytes_deleted - c0.maint.batch_bytes_deleted;
  out.maint_busy_s = cycles1.seconds - cycles0.seconds;
  out.maint_ckpt_bytes = cycles1.bytes - cycles0.bytes;
  Check("txn.all_committed", fwd.failed == 0,
        std::to_string(fwd.failed) + " failed");

  if (maint) {
    db->StopWorkers();
    checkpoint("forward.final_checkpoint");
    const LoopTotals tail =
        ClosedLoop(clients, traffic.next, Mix(seed, 3), w.tail_txns, nullptr);
    Check("txn.tail_committed", tail.failed == 0);
  }
  if (server != nullptr) {
    uint64_t sent = 0;
    uint64_t received = 0;
    bool dropped = false;
    bool mismatched = false;
    for (const WireCaller* c : callers) {
      sent += c->sent();
      received += c->received();
      dropped = dropped || c->dropped();
      mismatched = mismatched || c->mismatched();
    }
    Check("wire.no_dropped_connection", !dropped);
    Check("wire.request_ids_match", !mismatched);
    Check("wire.results_equal_calls", received == sent,
          std::to_string(received) + " results for " + std::to_string(sent) +
              " calls");
    server->Stop();
    const net::ServerStats st = server->stats();
    out.call_errors = st.call_errors;
    out.shed = st.shed;
  }

  const uint64_t hash = db->ContentHash();
  {
    ScopedPhase phase("crash", Phase::kOther);
    const Clock::time_point t = Clock::now();
    ScopedSpan span("storage.crash");
    db->Crash();
    out.crash_s = Since(t);
  }
  // A real crash ends the process, and the restarted one starts with no
  // heap. Crash() only drops the tables, so hand their memory back to the
  // OS before recovering, or recovery would run on warm pages.
  malloc_trim(0);
  FullRecoveryResult r;
  {
    ScopedPhase phase("recover", Phase::kRecover);
    recovery::RecoveryOptions ropts;
    ropts.num_threads = kRecoveryThreads;
    const Clock::time_point t = Clock::now();
    ScopedSpan span("db.recover");
    r = db->Recover(w.recovery, ropts, ExecutionBackend::kThreads);
    out.recover_s = Since(t);
  }
  out.ckpt_restore_s = r.checkpoint.seconds;
  out.log_replay_s = r.log.seconds;
  out.records_replayed = r.log.records_replayed;
  out.tuples_restored = r.checkpoint.tuples_restored + r.log.tuples_restored;
  out.latch_acquisitions =
      r.checkpoint.latch_acquisitions + r.log.latch_acquisitions;
  Check("recovery.content_hash", db->ContentHash() == hash);

  if (traced) {
    ScopedPhase phase("probe", Phase::kOther);
    db->Crash();
    RecoveryProbes(db.get(), w, &out);
  }
  out.peak_rss_mb = StatusMb("VmHWM:");
  // Locals go in reverse order: clients and server before the database,
  // the database before its directory.
  return out;
}

}  // namespace pacman::e2e
