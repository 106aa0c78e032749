// TPC-C crash/recovery walkthrough: runs the insert-disabled TPC-C mix
// on `--threads N` forward-processing workers, prints the global
// dependency graph PACMAN derives for it (cf. paper Fig. 21), then races
// CLR against CLR-P after a crash.
#include <cstdio>

#include "analysis/global_graph.h"
#include "common/flags.h"
#include "pacman/database.h"
#include "pacman/device_flags.h"
#include "workload/tpcc.h"

using namespace pacman;  // NOLINT: example brevity.

int main(int argc, char** argv) {
  CommonFlags defaults;
  defaults.txns = 10000;
  defaults.seed = 11;
  const CommonFlags flags = ParseCommonFlags(argc, argv, defaults);
  const uint32_t threads = flags.threads;
  DatabaseOptions options;
  options.scheme = logging::LogScheme::kCommand;
  ApplyDeviceFlags(flags, &options);
  Database db(options);
  ExitIfUnrecoveredState(&db);

  workload::Tpcc tpcc({.num_warehouses = 4,
                       .districts_per_warehouse = 10,
                       .customers_per_district = 100,
                       .num_items = 500,
                       .orders_per_district = 16});
  tpcc.Install(&db);
  db.FinalizeSchema();

  std::printf("TPC-C global dependency graph (%zu blocks):\n",
              db.gdg().NumBlocks());
  for (const analysis::Block& b : db.gdg().blocks) {
    std::printf("  block %u:", b.id);
    for (const analysis::GlobalSliceRef& ref : b.member_slices) {
      std::printf(" %s/S%u", db.procedure_name(ref.proc).c_str(),
                  ref.slice);
    }
    if (!b.deps.empty()) {
      std::printf("   <- depends on");
      for (BlockId d : b.deps) std::printf(" %u", d);
    }
    std::printf("\n");
  }

  CheckpointOrExit(&db);
  DriverOptions dopts;
  dopts.num_workers = threads;
  dopts.num_txns = flags.txns;
  dopts.seed = flags.seed;
  DriverResult run = db.RunWorkers(
      [&tpcc](Rng* rng, std::vector<Value>* params) {
        return tpcc.NextTransaction(rng, params);
      },
      dopts);
  if (run.failed != 0) return 1;
  std::printf("\nforward processing: %u worker(s), %.0f txn/s (%.0f per "
              "worker), %llu OCC retries\n",
              threads, run.TxnsPerSecond(), run.TxnsPerSecondPerWorker(),
              static_cast<unsigned long long>(run.retries));
  const uint64_t before = db.ContentHash();

  // Race CLR vs CLR-P on the same log (recover twice).
  double clr_time = 0, clrp_time = 0;
  {
    db.Crash();
    recovery::RecoveryOptions ropts;
    ropts.num_threads = 32;
    clr_time = db.Recover(recovery::Scheme::kClr, ropts).log.seconds;
    if (db.ContentHash() != before) return 1;
  }
  {
    db.Crash();
    recovery::RecoveryOptions ropts;
    ropts.num_threads = 32;
    clrp_time = db.Recover(recovery::Scheme::kClrP, ropts).log.seconds;
    if (db.ContentHash() != before) return 1;
  }
  std::printf("\nlog recovery, 32 virtual cores:\n");
  std::printf("  CLR   (serial command replay): %8.3f s\n", clr_time);
  std::printf("  CLR-P (PACMAN):                %8.3f s  (%.1fx faster)\n",
              clrp_time, clr_time / clrp_time);
  return 0;
}
