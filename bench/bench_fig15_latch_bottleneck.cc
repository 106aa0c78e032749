// Fig. 15: the latching bottleneck of tuple-level log recovery. PLR and
// LLR are run with and without per-tuple latch costs; without latches
// their recovery keeps improving with threads (bounded by device reload
// and index throughput), revealing latch synchronization as the cause of
// the degradation beyond ~20 threads.
//
// The bench also measures the forward-processing twin of the same
// pathology: commit-path serialization. The engine's Silo-style parallel
// commit locks only its write-set slots, so the recorded `lockw/txn`
// counts the only serialization events left on the commit path (the
// retired global commit latch serialized every commit by construction).
// `--json PATH` emits every measured row machine-readably; the committed
// BENCH_fig15.json baseline holds one such run's rows with its rerun
// command.
#include "bench/harness.h"

namespace pacman::bench {
namespace {

using recovery::Scheme;

void Run(Scheme scheme, logging::LogScheme format, const char* fig,
         uint32_t threads) {
  Env env = MakeTpccEnv(format);
  DriverResult forward = RunWorkloadThreaded(&env, 6000, threads);
  const uint64_t hash = env.db->ContentHash();
  std::printf("--- Fig. 15%s: %s ---\n", fig,
              pacman::recovery::SchemeName(scheme));
  PrintForwardStats("load", forward);
  std::printf("%-8s %14s %14s\n", "threads", "with latch", "without latch");
  for (uint32_t threads : PaperThreadCounts()) {
    double with_latch, without_latch;
    {
      pacman::recovery::RecoveryOptions opts;
      opts.num_threads = threads;
      with_latch = CrashAndRecover(&env, scheme, opts, hash).log.seconds;
    }
    {
      pacman::recovery::RecoveryOptions opts;
      opts.num_threads = threads;
      opts.costs.latch_base = opts.costs.latch_quad = 0.0;
      without_latch = CrashAndRecover(&env, scheme, opts, hash).log.seconds;
    }
    std::printf("%-8u %14.4f %14.4f\n", threads, with_latch, without_latch);
    const std::string section = std::string("recovery_fig15") + fig;
    const std::string name = pacman::recovery::SchemeName(scheme);
    RecordJson({section, name + "+latch", threads, 6000, 0.0, 0.0, 0.0, 0.0,
                with_latch});
    RecordJson({section, name + "-latch", threads, 6000, 0.0, 0.0, 0.0, 0.0,
                without_latch});
  }
}

}  // namespace
}  // namespace pacman::bench

int main(int argc, char** argv) {
  using namespace pacman::bench;
  const pacman::CommonFlags flags = pacman::ParseCommonFlags(argc, argv);
  pacman::bench::SetDeviceFlags(flags);
  const uint32_t threads = flags.threads;
  PrintTitle("Fig. 15 - Latching bottleneck in tuple-level log recovery");

  // Forward-processing commit scaling (this repo's extension): the same
  // workload at 1..8 workers under command logging, the paper's primary
  // scheme. The acceptance signal is the per-transaction slot-lock
  // contention staying at true-conflict levels instead of 1.0/txn, which
  // is what the global commit latch pinned it to.
  RunForwardCommitScaling(
      [] { return MakeTpccEnv(pacman::logging::LogScheme::kCommand); }, "CL",
      6000, {1, 2, 4, 8});

  Run(pacman::recovery::Scheme::kPlr, pacman::logging::LogScheme::kPhysical,
      "a", threads);
  Run(pacman::recovery::Scheme::kLlr, pacman::logging::LogScheme::kLogical,
      "b", threads);
  std::printf(
      "\nExpected shape (paper): with latches both schemes bottom out\n"
      "around 20 threads and then regress; without latches they keep\n"
      "improving, flattening once reload/index throughput dominates.\n");
  WriteJsonReport(flags.json, "fig15_latch_bottleneck");
  return 0;
}
