// Compares all five recovery schemes on the paper's bank example and
// prints a small table of virtual recovery times, demonstrating the
// trade-off of §2.4: command logging logs least but (without PACMAN)
// recovers slowest. Forward processing runs on `--threads N` workers and
// reports per-worker throughput.
#include <cstdio>

#include "common/flags.h"
#include "pacman/database.h"
#include "pacman/device_flags.h"
#include "workload/bank.h"

using namespace pacman;  // NOLINT: example brevity.

namespace {

logging::LogScheme FormatFor(recovery::Scheme s) {
  switch (s) {
    case recovery::Scheme::kPlr:
      return logging::LogScheme::kPhysical;
    case recovery::Scheme::kLlr:
    case recovery::Scheme::kLlrP:
      return logging::LogScheme::kLogical;
    default:
      return logging::LogScheme::kCommand;
  }
}

}  // namespace

int main(int argc, char** argv) {
  CommonFlags defaults;
  defaults.txns = 10000;
  defaults.seed = 7;
  const CommonFlags flags = ParseCommonFlags(argc, argv, defaults);
  const uint32_t threads = flags.threads;
  std::printf("%-8s %12s %16s %12s %12s %14s\n", "scheme", "log MB",
              "fwd txn/s/wkr", "ckpt(s)", "replay(s)", "latches");
  for (recovery::Scheme scheme :
       {recovery::Scheme::kPlr, recovery::Scheme::kLlr,
        recovery::Scheme::kLlrP, recovery::Scheme::kClr,
        recovery::Scheme::kClrP}) {
    DatabaseOptions options;
    options.scheme = FormatFor(scheme);
    // With --device file each scheme gets its own directory (their log
    // formats are incompatible; recovery loads every batch it finds).
    ApplyDeviceFlags(flags, &options, recovery::SchemeName(scheme));
    Database db(options);
    ExitIfUnrecoveredState(&db);
    workload::Bank bank({.num_users = 5000, .num_nations = 16,
                         .single_fraction = 0.1});
    bank.Install(&db);
    db.FinalizeSchema();
    CheckpointOrExit(&db);

    DriverOptions dopts;
    dopts.num_workers = threads;
    dopts.num_txns = flags.txns;
    dopts.seed = flags.seed;
    DriverResult run = db.RunWorkers(
        [&bank](Rng* rng, std::vector<Value>* params) {
          return bank.NextTransaction(rng, params);
        },
        dopts);
    if (run.failed != 0) return 1;
    const double log_mb = db.log_bytes() / 1e6;
    const uint64_t before = db.ContentHash();
    db.Crash();

    recovery::RecoveryOptions ropts;
    ropts.num_threads = 16;
    FullRecoveryResult r = db.Recover(scheme, ropts);
    if (db.ContentHash() != before) {
      std::printf("%s: RECOVERY MISMATCH\n", recovery::SchemeName(scheme));
      return 1;
    }
    std::printf("%-8s %12.1f %16.0f %12.3f %12.3f %14llu\n",
                recovery::SchemeName(scheme), log_mb,
                run.TxnsPerSecondPerWorker(), r.checkpoint.seconds,
                r.log.seconds,
                static_cast<unsigned long long>(r.log.latch_acquisitions));
  }
  return 0;
}
