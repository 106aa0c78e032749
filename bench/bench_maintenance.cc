// Continuous maintenance payoff: recovery time vs retained log size at
// growing uptime, with and without background checkpoint + truncation
// (maintenance/checkpoint_service.h).
//
// Each configuration runs the same Smallbank transaction stream in
// rounds; the GC run performs one maintenance cycle (checkpoint at the
// stable timestamp, truncate covered batches, retire superseded
// checkpoints) after every round, the control never does. Without GC the
// retained log equals everything ever written and recovery replays all
// of it; with GC the retained suffix — and recovery — stay bounded by
// the cycle cadence while total logged bytes grow without bound. Both
// runs must recover to the identical content hash.
//
// Sections recorded with --json (BENCH_maintenance.json at the repo root
// holds the committed baseline):
//   maintenance_retention  per-round retained log bytes/files (the
//                          bounded-vs-linear curve), gc true/false
//   maintenance_recovery   end-of-run recovery wall seconds + retained
//                          vs total logged bytes, gc true/false
#include <chrono>

#include "bench/harness.h"
#include "maintenance/checkpoint_service.h"

namespace pacman::bench {
namespace {

using recovery::Scheme;

logging::LogScheme FormatFor(Scheme s) {
  return s == Scheme::kLlrP ? logging::LogScheme::kLogical
                            : logging::LogScheme::kCommand;
}

uint64_t RetainedLogBytes(Database* db, uint64_t* files) {
  uint64_t bytes = 0;
  *files = 0;
  for (device::StorageDevice* dev : db->log_manager()->devices()) {
    for (const std::string& name : dev->ListFiles("log_")) {
      bytes += dev->FileSize(name);
      ++*files;
    }
  }
  return bytes;
}

struct RunResult {
  uint64_t pre_crash_hash = 0;
};

RunResult Run(Scheme scheme, bool gc, uint64_t total_txns, int rounds,
              uint32_t threads, uint64_t seed) {
  const char* scheme_name = pacman::recovery::SchemeName(scheme);
  Env env = MakeSmallbankEnv(FormatFor(scheme));
  // Baseline image, both configurations.
  PACMAN_CHECK(env.db->TryTakeCheckpoint().ok());

  // Interval effectively infinite: the bench drives cycles explicitly
  // with RunOnce after each round, so cadence is round-aligned and
  // deterministic (no background thread, hence the null pool).
  maintenance::CheckpointPolicy policy;
  policy.interval_s = 3600.0;
  maintenance::CheckpointService service(env.db.get(), policy,
                                         /*pool=*/nullptr);

  const uint64_t per_round = total_txns / rounds;
  std::printf("--- %s, maintenance %s ---\n", scheme_name,
              gc ? "ON (cycle per round)" : "OFF (control)");
  std::printf("%-6s %10s %14s %12s %14s\n", "round", "txns", "logged (B)",
              "files", "retained (B)");
  for (int round = 0; round < rounds; ++round) {
    DriverOptions opts;
    opts.num_workers = threads;
    opts.num_txns = per_round;
    opts.seed = seed + static_cast<uint64_t>(round);
    DriverResult r = env.db->RunWorkers(env.next_txn, opts);
    PACMAN_CHECK(r.failed == 0);
    env.db->AdvanceEpoch();  // Close the round's tail epoch.
    if (gc) {
      Status s = service.RunOnce();
      PACMAN_CHECK_MSG(s.ok(), "maintenance cycle failed");
    }
    uint64_t files = 0;
    const uint64_t retained = RetainedLogBytes(env.db.get(), &files);
    std::printf("%-6d %10llu %14llu %12llu %14llu\n", round + 1,
                static_cast<unsigned long long>(per_round * (round + 1)),
                static_cast<unsigned long long>(env.db->log_bytes()),
                static_cast<unsigned long long>(files),
                static_cast<unsigned long long>(retained));
    RecordJson({"maintenance_retention", scheme_name, threads,
                per_round * (round + 1), 0.0, 0.0, 0.0, 0.0, 0.0,
                ", \"gc\": " + std::string(gc ? "true" : "false") +
                    ", \"round\": " + std::to_string(round + 1) +
                    ", \"retained_log_bytes\": " + std::to_string(retained) +
                    ", \"retained_log_files\": " + std::to_string(files) +
                    ", \"total_logged_bytes\": " +
                    std::to_string(env.db->log_bytes())});
  }

  uint64_t files = 0;
  const uint64_t retained = RetainedLogBytes(env.db.get(), &files);
  const uint64_t total_logged = env.db->log_bytes();
  const maintenance::MaintenanceStats ms = service.stats();
  RunResult result;
  result.pre_crash_hash = env.db->ContentHash();

  env.db->Crash();
  pacman::recovery::RecoveryOptions ropts;
  ropts.num_threads = threads;
  const auto t0 = std::chrono::steady_clock::now();
  FullRecoveryResult rec = env.db->Recover(scheme, ropts);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  PACMAN_CHECK_MSG(env.db->ContentHash() == result.pre_crash_hash,
                   "post-recovery state diverged from pre-crash state");

  std::printf(
      "recovered %llu records in %.4fs wall (%.4fs virtual); retained "
      "%llu/%llu logged bytes in %llu files; %llu checkpoints, %llu "
      "batches truncated\n\n",
      static_cast<unsigned long long>(rec.log.records_replayed), wall,
      rec.TotalSeconds(), static_cast<unsigned long long>(retained),
      static_cast<unsigned long long>(total_logged),
      static_cast<unsigned long long>(files),
      static_cast<unsigned long long>(ms.checkpoints),
      static_cast<unsigned long long>(ms.batches_deleted));
  RecordJson({"maintenance_recovery", scheme_name, threads, total_txns, 0.0,
              0.0, 0.0, 0.0, wall,
              ", \"gc\": " + std::string(gc ? "true" : "false") +
                  ", \"retained_log_bytes\": " + std::to_string(retained) +
                  ", \"retained_log_files\": " + std::to_string(files) +
                  ", \"total_logged_bytes\": " + std::to_string(total_logged) +
                  ", \"records_replayed\": " +
                  std::to_string(rec.log.records_replayed) +
                  ", \"virtual_seconds\": " +
                  std::to_string(rec.TotalSeconds()) +
                  ", \"checkpoints\": " + std::to_string(ms.checkpoints) +
                  ", \"batches_deleted\": " +
                  std::to_string(ms.batches_deleted) +
                  ", \"batch_bytes_deleted\": " +
                  std::to_string(ms.batch_bytes_deleted)});
  return result;
}

}  // namespace
}  // namespace pacman::bench

int main(int argc, char** argv) {
  using namespace pacman::bench;
  pacman::CommonFlags defaults;
  defaults.txns = 24000;  // 12 rounds: >= 10x logged-bytes growth.
  pacman::CommonFlags flags = pacman::ParseCommonFlags(argc, argv, defaults);
  SetDeviceFlags(flags);
  constexpr int kRounds = 12;
  PrintTitle(
      "Maintenance - recovery time vs retained log, with/without GC");
  for (Scheme scheme : {Scheme::kClrP, Scheme::kLlrP}) {
    RunResult control = Run(scheme, /*gc=*/false, flags.txns, kRounds,
                            flags.threads, flags.seed);
    RunResult gc = Run(scheme, /*gc=*/true, flags.txns, kRounds,
                       flags.threads, flags.seed);
    // Single-worker forward runs are deterministic, so the GC run must
    // land on byte-identical state — truncation changed recovery's
    // inputs, never its answer.
    if (flags.threads == 1) {
      PACMAN_CHECK_MSG(control.pre_crash_hash == gc.pre_crash_hash,
                       "GC run diverged from control");
    }
  }
  std::printf(
      "\nExpected shape: without GC the retained log equals total logged\n"
      "bytes and recovery grows linearly with uptime; with a maintenance\n"
      "cycle per round the retained suffix and recovery stay bounded at\n"
      "roughly one round of log regardless of total uptime.\n");
  WriteJsonReport(flags.json, "maintenance");
  return 0;
}
