// Ad-hoc transactions (§4.5): mixes stored-procedure requests with ad-hoc
// ones through the session API, showing how command logging degrades
// toward logical logging as the ad-hoc fraction grows, while PACMAN still
// recovers the mixed log.
//
//   ./build/examples/adhoc_mix [--txns N] [--seed N]
#include <cstdio>

#include "common/flags.h"
#include "pacman/database.h"
#include "pacman/device_flags.h"
#include "workload/adhoc.h"
#include "workload/smallbank.h"

using namespace pacman;  // NOLINT: example brevity.

int main(int argc, char** argv) {
  CommonFlags defaults;
  defaults.txns = 8000;
  defaults.seed = 101;
  const CommonFlags flags = ParseCommonFlags(argc, argv, defaults);

  std::printf("%-10s %14s %14s %14s\n", "adhoc %", "log MB",
              "recovery(s)", "verified");
  int sweep_point = 0;
  for (double frac : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    DatabaseOptions options;
    options.scheme = logging::LogScheme::kCommand;
    // Disjoint directory per sweep point under --log-dir.
    ApplyDeviceFlags(flags, &options,
                     "adhoc" + std::to_string(sweep_point++));
    Database db(options);
    ExitIfUnrecoveredState(&db);
    workload::Smallbank sb({.num_accounts = 5000,
                            .hotspot_fraction = 0.2,
                            .hotspot_size = 100});
    sb.Install(&db);
    db.FinalizeSchema();
    CheckpointOrExit(&db);

    auto session = db.OpenSession();
    Rng rng(flags.seed);
    std::vector<Value> params;
    for (uint64_t i = 0; i < flags.txns; ++i) {
      ProcId proc = sb.NextTransaction(&rng, &params);
      TxnOptions topts;
      topts.adhoc = workload::TagAdhoc(&rng, frac);
      if (!session->Call(db.proc(proc), params, topts).ok()) return 1;
    }
    const uint64_t before = db.ContentHash();
    db.Crash();
    recovery::RecoveryOptions ropts;
    ropts.num_threads = 16;
    FullRecoveryResult r = db.Recover(recovery::Scheme::kClrP, ropts);
    std::printf("%-10.0f %14.2f %14.3f %14s\n", frac * 100,
                db.log_bytes() / 1e6, r.log.seconds,
                db.ContentHash() == before ? "yes" : "NO");
    if (db.ContentHash() != before) return 1;
  }
  return 0;
}
