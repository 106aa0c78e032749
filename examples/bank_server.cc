// Standalone network front-end over the paper's bank workload: a
// Database serving Transfer/Deposit to TCP clients (net/server.h). The
// binary the Python client (bindings/pacman_client.py) and the CI smoke
// test talk to — including across a kill -9: with --device file, a
// restart over the same --log-dir recovers with CLR-P before listening
// again, and reconnecting clients see the pre-kill state.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/bank_server --port 7444 [--threads N]
//       [--device file --log-dir /tmp/pacman-bank]
//       [--checkpoint-secs S] [--checkpoint-mb N]
// (one command line: the options wrap here only for width)
//
// With a checkpoint trigger set, a background service periodically
// checkpoints and truncates the log (maintenance/checkpoint_service.h),
// printing one "CHECKPOINT id=…" line per completed cycle, so the log
// directory stays bounded at unbounded uptime.
//
// Prints exactly one "LISTENING host=<h> port=<p>" line once ready (an
// ephemeral port resolves here — launchers parse it), then serves until
// SIGINT/SIGTERM.
#include <csignal>
#include <cstdio>

#include "common/flags.h"
#include "net/server.h"
#include "pacman/database.h"
#include "pacman/device_flags.h"
#include "workload/bank.h"

using namespace pacman;  // NOLINT: example brevity.

namespace {

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  CommonFlags defaults;
  defaults.threads = 4;
  const CommonFlags flags = ParseCommonFlags(argc, argv, defaults);

  DatabaseOptions options;
  options.scheme = logging::LogScheme::kCommand;
  ApplyDeviceFlags(flags, &options);
  options.checkpoint_interval_s = flags.checkpoint_secs;
  options.checkpoint_log_bytes = flags.checkpoint_mb * (1ull << 20);
  // One line per completed cycle (stdout, flushed: the smoke test and CI
  // tail the pipe while the server runs).
  options.checkpoint_event_hook = [](const maintenance::CheckpointEvent& ev) {
    std::printf("CHECKPOINT id=%llu ts=%llu bytes=%llu "
                "truncated_batches=%llu truncated_bytes=%llu "
                "retired_files=%llu secs=%.3f\n",
                static_cast<unsigned long long>(ev.id),
                static_cast<unsigned long long>(ev.ts),
                static_cast<unsigned long long>(ev.checkpoint_bytes),
                static_cast<unsigned long long>(ev.batches_deleted),
                static_cast<unsigned long long>(ev.batch_bytes_deleted),
                static_cast<unsigned long long>(ev.stripes_deleted),
                ev.seconds);
    std::fflush(stdout);
  };
  Database db(options);

  workload::Bank bank({.num_users = 10000, .num_nations = 16,
                       .single_fraction = 0.1});
  if (db.opened_existing_state()) {
    // Restarted over a durable image: schema + procedures, then recover
    // (the checkpoint and log carry the data).
    bank.CreateTables(db.catalog());
    bank.RegisterProcedures(db.registry());
    bank.RegisterBalance(db.registry());
    db.FinalizeSchema();
    recovery::RecoveryOptions ropts;
    ropts.num_threads = flags.threads;
    FullRecoveryResult r =
        db.Recover(recovery::Scheme::kClrP, ropts, ExecutionBackend::kThreads);
    std::fprintf(stderr, "recovered %llu log records in %.3fs\n",
                 static_cast<unsigned long long>(r.log.records_replayed),
                 r.TotalSeconds());
  } else {
    bank.Install(&db);
    // Balance(user) is read-only, so clients can keep polling it even
    // after a log-device failure drops the database to read-only mode.
    bank.RegisterBalance(db.registry());
    db.FinalizeSchema();
    CheckpointOrExit(&db);
  }

  net::ServerOptions sopts;
  sopts.host = flags.host;
  sopts.port = flags.port;
  sopts.executor_workers = flags.threads;
  net::Server server(&db, sopts);
  Status s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("LISTENING host=%s port=%u\n", sopts.host.c_str(),
              server.port());
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  // The main loop doubles as the degraded-mode watchdog: when a permanent
  // log-device failure drops the database to read-only, print exactly one
  // "READONLY reason=…" line (stdout, flushed — CI and launchers tail the
  // pipe for it, the same contract as LISTENING) and keep serving reads.
  bool announced_read_only = false;
  while (g_stop == 0) {
    if (!announced_read_only && db.read_only()) {
      announced_read_only = true;
      std::printf("READONLY reason=%s\n", db.read_only_reason().c_str());
      std::fflush(stdout);
    }
    struct timespec ts = {0, 200 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }

  server.Stop();
  const net::ServerStats stats = server.stats();
  std::fprintf(stderr,
               "served %llu connections, %llu calls (%llu rejected, "
               "%llu shed, %llu protocol errors)\n",
               static_cast<unsigned long long>(stats.accepted),
               static_cast<unsigned long long>(stats.calls),
               static_cast<unsigned long long>(stats.call_errors),
               static_cast<unsigned long long>(stats.shed),
               static_cast<unsigned long long>(stats.protocol_errors));
  const maintenance::MaintenanceStats maint = db.maintenance_stats();
  if (maint.checkpoints > 0 || maint.checkpoint_failures > 0) {
    std::fprintf(stderr,
                 "maintenance: %llu checkpoints (%llu failed), "
                 "%llu batches / %llu bytes truncated\n",
                 static_cast<unsigned long long>(maint.checkpoints),
                 static_cast<unsigned long long>(maint.checkpoint_failures),
                 static_cast<unsigned long long>(maint.batches_deleted),
                 static_cast<unsigned long long>(maint.batch_bytes_deleted));
  }
  const uint64_t io_retries = db.io_retries();
  const uint64_t io_failures = db.io_failures();
  const bool read_only = db.read_only();
  if (io_retries > 0 || io_failures > 0 || read_only) {
    std::fprintf(stderr, "durability: %llu IO retries, %llu IO failures%s%s\n",
                 static_cast<unsigned long long>(io_retries),
                 static_cast<unsigned long long>(io_failures),
                 read_only ? ", READ-ONLY: " : "",
                 read_only ? db.read_only_reason().c_str() : "");
  }
  return 0;
}
