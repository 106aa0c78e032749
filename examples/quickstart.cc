// Quickstart: define a schema and stored procedures, talk to the engine
// through the session client API — typed procedure handles, synchronous
// calls that return values, asynchronous open-system submission — run a
// closed-loop scaling workload over the same path, crash, and recover
// with PACMAN (CLR-P).
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [--threads N] [--txns N] [--seed N]
#include <cstdio>
#include <vector>

#include "common/flags.h"
#include "pacman/database.h"
#include "pacman/device_flags.h"
#include "workload/bank.h"

using namespace pacman;  // NOLINT: example brevity.

int main(int argc, char** argv) {
  CommonFlags defaults;
  defaults.txns = 20000;
  defaults.seed = 2026;
  const CommonFlags flags = ParseCommonFlags(argc, argv, defaults);

  // 1. A database with command logging on two simulated SSDs — or, with
  //    --device file --log-dir PATH, on two real directories whose logs
  //    survive a process kill.
  DatabaseOptions options;
  options.scheme = logging::LogScheme::kCommand;
  ApplyDeviceFlags(flags, &options);
  Database db(options);
  ExitIfUnrecoveredState(&db);

  // 2. Schema + stored procedures + data (the paper's bank example,
  //    Figs. 2-5), installed through the facade.
  workload::Bank bank({.num_users = 10000, .num_nations = 16,
                       .single_fraction = 0.1});
  bank.Install(&db);

  // 3. Compile-time static analysis: slices -> local graphs -> the GDG.
  db.FinalizeSchema();
  std::printf("GDG has %zu blocks over %zu procedures\n",
              db.gdg().NumBlocks(), db.num_procedures());
  CheckpointOrExit(&db);

  // 4. A session per client; typed handles resolve procedures by name.
  ProcHandle deposit = db.proc("Deposit");
  ProcHandle transfer = db.proc("Transfer");
  auto session = db.OpenSession();

  //    Synchronous call: the procedure's Emit() values come back in the
  //    TxnResult (here: the account's new Current balance).
  TxnResult r = session->Call(
      deposit, {Value(int64_t{7}), Value(250.0), Value(int64_t{3})});
  if (!r.ok()) return 1;
  std::printf("Deposit(7, 250.00) -> new balance %.2f (commit ts %llu)\n",
              r.values[0].AsDouble(),
              static_cast<unsigned long long>(r.commit_ts));

  //    Signatures are validated before execution: this call never runs.
  TxnResult bad = session->Call(deposit, {Value(int64_t{7})});
  std::printf("malformed call rejected: %s\n", bad.status.ToString().c_str());

  // 5. Asynchronous open-system submission: N executor workers drain a
  //    shared queue that any number of sessions feed.
  db.StartWorkers(flags.threads);
  std::vector<TxnFuture> futures;
  for (int64_t i = 0; i < 64; ++i) {
    futures.push_back(
        session->Submit(transfer, {Value(2 * i), Value(10.0)}));
  }
  uint64_t async_committed = 0;
  for (TxnFuture& f : futures) {
    if (f.Get().ok()) async_committed++;
  }
  db.StopWorkers();
  std::printf("async: %llu/64 transfers committed\n",
              static_cast<unsigned long long>(async_committed));

  // 6. Closed-loop scaling run over the same submission path (OCC retry,
  //    per-worker log staging, epoch group commit).
  DriverOptions dopts;
  dopts.num_workers = flags.threads;
  dopts.num_txns = flags.txns;
  dopts.seed = flags.seed;
  dopts.adhoc_fraction = flags.adhoc;
  DriverResult run = db.RunWorkers(
      [&bank](Rng* rng, std::vector<Value>* params) {
        return bank.NextTransaction(rng, params);
      },
      dopts);
  if (run.failed != 0) {
    std::printf("%llu transactions exhausted their OCC retries\n",
                static_cast<unsigned long long>(run.failed));
    return 1;
  }
  std::printf(
      "committed %llu transactions on %u worker(s) in %.3f s\n"
      "  %.0f txn/s aggregate, %.0f txn/s per worker, %llu OCC retries\n"
      "  logged %.1f MB\n",
      static_cast<unsigned long long>(run.committed), flags.threads,
      run.wall_seconds, run.TxnsPerSecond(), run.TxnsPerSecondPerWorker(),
      static_cast<unsigned long long>(run.retries), db.log_bytes() / 1e6);

  const uint64_t before = db.ContentHash();

  // 7. Crash: all in-memory state is lost (sessions survive).
  db.Crash();

  // 8. Recover with PACMAN on a simulated 16-core machine.
  recovery::RecoveryOptions ropts;
  ropts.num_threads = 16;
  FullRecoveryResult result = db.Recover(recovery::Scheme::kClrP, ropts);
  std::printf("checkpoint recovery: %.3f s (virtual)\n",
              result.checkpoint.seconds);
  std::printf("log recovery:        %.3f s (virtual), %llu txns replayed\n",
              result.log.seconds,
              static_cast<unsigned long long>(result.log.records_replayed));

  // 9. Verify: the recovered state matches bit for bit, and the session
  //    keeps working on the recovered database.
  if (db.ContentHash() != before) {
    std::printf("RECOVERY MISMATCH\n");
    return 1;
  }
  TxnResult after = session->Call(
      deposit, {Value(int64_t{7}), Value(1.0), Value(int64_t{3})});
  if (!after.ok()) return 1;
  std::printf("recovered state verified; balance now %.2f\n",
              after.values[0].AsDouble());
  return 0;
}
