// Fig. 13: checkpoint recovery. (a) pure checkpoint-file reloading time
// and (b) overall checkpoint-recovery time vs thread count, per scheme.
// PLR restores records only (index rebuild deferred to log recovery), so
// its overall time is lowest; the reload stage is device-bound for all.
// Both are virtual seconds on the simulated backend.
//
// The restore_scaling section measures the same restore for real: the
// wall seconds of restoring a SmallBank checkpoint (--txns sets the
// account count; 600000 accounts are 1.8M rows in 16 stripes) on 1, 2
// and 4 real threads, unsharded and with 4 shards, each the median of 5
// crash -> restore repetitions of one checkpoint. `txns_per_sec` carries
// restored tuples per wall second. Rerun:
//
//   ./build/bench/bench_fig13_checkpoint_recovery --json OUT.json
#include <algorithm>
#include <chrono>

#include "bench/harness.h"

namespace pacman::bench {
namespace {

using recovery::Scheme;

logging::LogScheme FormatFor(Scheme s) {
  switch (s) {
    case Scheme::kPlr:
      return logging::LogScheme::kPhysical;
    case Scheme::kLlr:
    case Scheme::kLlrP:
      return logging::LogScheme::kLogical;
    default:
      return logging::LogScheme::kCommand;
  }
}

void Run() {
  const Scheme schemes[] = {Scheme::kPlr, Scheme::kLlr, Scheme::kLlrP,
                            Scheme::kClr, Scheme::kClrP};
  const auto threads = PaperThreadCounts();
  // results[reload_only][scheme][thread index].
  std::vector<std::vector<std::vector<double>>> results(
      2, std::vector<std::vector<double>>(5,
                                          std::vector<double>(threads.size())));
  for (int si = 0; si < 5; ++si) {
    Env env = MakeTpccEnv(FormatFor(schemes[si]));
    const uint64_t hash = RunWorkload(&env, 1500);
    for (int reload = 1; reload >= 0; --reload) {
      for (size_t ti = 0; ti < threads.size(); ++ti) {
        pacman::recovery::RecoveryOptions opts;
        opts.num_threads = threads[ti];
        opts.reload_only = reload == 1;
        auto r = CrashAndRecover(&env, schemes[si], opts, hash,
                                 /*verify=*/reload == 0);
        results[reload][si][ti] = r.checkpoint.seconds;
      }
    }
  }
  for (int reload = 1; reload >= 0; --reload) {
    std::printf("--- Fig. 13%s: %s ---\n", reload ? "a" : "b",
                reload ? "pure checkpoint file reloading"
                       : "overall checkpoint recovery");
    std::printf("%-8s", "threads");
    for (Scheme s : schemes) {
      std::printf(" %10s", pacman::recovery::SchemeName(s));
    }
    std::printf("\n");
    for (size_t ti = 0; ti < threads.size(); ++ti) {
      std::printf("%-8u", threads[ti]);
      for (int si = 0; si < 5; ++si) {
        std::printf(" %10.4f", results[reload][si][ti]);
      }
      std::printf("\n");
    }
  }
}

void RestoreScaling(uint64_t accounts) {
  std::printf(
      "--- Restore scaling: SmallBank checkpoint, %llu accounts, real "
      "threads, wall clock ---\n",
      static_cast<unsigned long long>(accounts));
  std::printf("%8s %8s %10s %12s %12s\n", "shards", "threads", "tuples",
              "wall (s)", "tuples/s");
  const Scheme scheme = Scheme::kClrP;
  for (uint32_t shards : {1u, 4u}) {
    DatabaseOptions opts = DefaultDbOptions(logging::LogScheme::kCommand);
    opts.num_shards = shards;
    auto db = std::make_unique<Database>(opts);
    workload::Smallbank bank(
        workload::SmallbankConfig{.num_accounts = static_cast<int64_t>(accounts)});
    bank.Install(db.get());
    db->FinalizeSchema();
    PACMAN_CHECK(db->TryTakeCheckpoint().ok());
    const uint64_t hash = db->ContentHash();
    for (uint32_t threads : {1u, 2u, 4u}) {
      pacman::recovery::RecoveryOptions ropts;
      ropts.num_threads = threads;
      constexpr int kReps = 5;
      double walls[kReps];
      FullRecoveryResult r;
      for (int rep = 0; rep < kReps; ++rep) {
        db->Crash();
        r = db->Recover(scheme, ropts, ExecutionBackend::kThreads);
        walls[rep] = r.checkpoint.seconds;
        PACMAN_CHECK(db->ContentHash() == hash);
      }
      std::sort(walls, walls + kReps);
      const double wall = walls[kReps / 2];
      const uint64_t tuples = r.checkpoint.tuples_restored;
      const double tps = wall > 0.0 ? static_cast<double>(tuples) / wall : 0.0;
      std::printf("%8u %8u %10llu %12.4f %12.0f\n", shards, threads,
                  static_cast<unsigned long long>(tuples), wall, tps);
      RecordJson({"restore_scaling", pacman::recovery::SchemeName(scheme),
                  threads, accounts, tps, 0.0, 0.0, 0.0, wall,
                  ", \"shards\": " + std::to_string(shards) +
                      ", \"tuples\": " + std::to_string(tuples)});
    }
  }
}

}  // namespace
}  // namespace pacman::bench

int main(int argc, char** argv) {
  using namespace pacman::bench;
  pacman::CommonFlags defaults;
  defaults.txns = 600000;
  const pacman::CommonFlags flags =
      pacman::ParseCommonFlags(argc, argv, defaults);
  SetDeviceFlags(flags);
  PrintTitle("Fig. 13 - Checkpoint recovery (TPC-C)");
  Run();
  std::printf(
      "\nExpected shape (paper): reload times are similar across schemes\n"
      "and flatten once device bandwidth saturates; overall time is much\n"
      "lower for PLR (no online index build), LLR slightly faster than the\n"
      "remaining schemes.\n\n");
  RestoreScaling(flags.txns);
  std::printf(
      "\nExpected shape (paper): restore gets faster with threads, since\n"
      "stripes reload in parallel.\n");
  WriteJsonReport(flags.json, "fig13_checkpoint_recovery");
  return 0;
}
