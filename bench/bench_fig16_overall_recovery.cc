// Fig. 16: overall database recovery (checkpoint recovery + log recovery,
// stacked) with 40 recovery threads, on TPC-C and Smallbank — plus the
// recovery_scaling section: end-to-end Recover() wall time and replay
// throughput of the pipelined load path (recovery/log_pipeline.h) against
// the serial reference loader, across thread counts and log sizes.
// `--json PATH` records every row (BENCH_recovery.json at the repo root
// holds the committed before/after baseline in this format).
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

void Run(bool tpcc, int num_txns) {
  std::printf("--- Fig. 16%s: %s ---\n", tpcc ? "a" : "b",
              tpcc ? "TPC-C" : "Smallbank");
  std::printf("%-8s %14s %14s %14s\n", "scheme", "ckpt (s)", "log (s)",
              "total (s)");
  for (Scheme scheme : {Scheme::kPlr, Scheme::kLlr, Scheme::kLlrP,
                        Scheme::kClr, Scheme::kClrP}) {
    Env env = tpcc ? MakeTpccEnv(FormatFor(scheme))
                   : MakeSmallbankEnv(FormatFor(scheme));
    const uint64_t hash = RunWorkload(&env, num_txns);
    pacman::recovery::RecoveryOptions opts;
    opts.num_threads = 40;
    auto r = CrashAndRecover(&env, scheme, opts, hash);
    std::printf("%-8s %14.4f %14.4f %14.4f\n",
                pacman::recovery::SchemeName(scheme), r.checkpoint.seconds,
                r.log.seconds, r.TotalSeconds());
    RecordJson({tpcc ? "fig16_tpcc" : "fig16_smallbank",
                pacman::recovery::SchemeName(scheme), 40,
                static_cast<uint64_t>(num_txns), 0.0, 0.0, 0.0, 0.0,
                r.TotalSeconds()});
  }
}

// End-to-end Recover() wall clock (checkpoint restore + pipelined log load
// + replay, including everything in front of the replay graph).
// `txns_per_sec` carries replayed records per wall second. Sections:
// recovery_scaling on the default simulated replay backend fig16's
// headline table uses; recovery_scaling_threads repeats the sweep on the
// real-thread backend with overlapped replay (per-batch gates).
void RecoveryScaling(Scheme scheme, uint64_t base_txns,
                     bool threads_backend) {
  const char* scheme_name = pacman::recovery::SchemeName(scheme);
  std::printf(
      "--- Recovery scaling: %s on TPC-C, %s backend, wall clock ---\n",
      scheme_name,
      threads_backend ? "real threads (overlapped replay)" : "simulated");
  std::printf("%8s %8s %10s %12s %12s\n", "threads", "txns", "records",
              "wall (s)", "records/s");
  for (uint64_t txns : {base_txns / 2, base_txns, base_txns * 2}) {
    // One durable state per log size: every thread-count row below
    // recovers literally the same checkpoint + log, so the rows being
    // compared cannot drift apart on forward-run nondeterminism.
    Env env = MakeTpccEnv(FormatFor(scheme));
    const uint64_t hash = RunWorkload(&env, static_cast<int>(txns));
    for (uint32_t threads : {1u, 2u, 4u}) {
      pacman::recovery::RecoveryOptions opts;
      opts.num_threads = threads;
      // Median of repeated recoveries of the same durable state (recover
      // -> crash -> recover), so one cold page-in or scheduler hiccup
      // cannot masquerade as a scaling difference.
      constexpr int kReps = 3;
      double walls[kReps];
      FullRecoveryResult r;
      for (int rep = 0; rep < kReps; ++rep) {
        env.db->Crash();
        const auto t0 = std::chrono::steady_clock::now();
        r = env.db->Recover(scheme, opts,
                            threads_backend ? ExecutionBackend::kThreads
                                            : ExecutionBackend::kSimulated);
        walls[rep] = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
        PACMAN_CHECK(env.db->ContentHash() == hash);
      }
      std::sort(walls, walls + kReps);
      const double wall = walls[kReps / 2];
      const double rps =
          wall > 0.0 ? static_cast<double>(r.log.records_replayed) / wall
                     : 0.0;
      std::printf("%8u %8llu %10llu %12.4f %12.0f\n", threads,
                  static_cast<unsigned long long>(txns),
                  static_cast<unsigned long long>(r.log.records_replayed),
                  wall, rps);
      RecordJson({threads_backend ? "recovery_scaling_threads"
                                  : "recovery_scaling",
                  scheme_name, threads, txns, rps, 0.0, 0.0, 0.0, wall});
    }
  }
}

}  // namespace
}  // namespace pacman::bench

int main(int argc, char** argv) {
  using namespace pacman::bench;
  pacman::CommonFlags defaults;
  defaults.txns = 6000;
  pacman::CommonFlags flags = pacman::ParseCommonFlags(argc, argv, defaults);
  SetDeviceFlags(flags);
  const int txns = static_cast<int>(flags.txns);
  PrintTitle("Fig. 16 - Overall performance of database recovery (40 threads)");
  Run(/*tpcc=*/true, txns);
  Run(/*tpcc=*/false, txns);
  // CL-P = the headline scheme (replay-bound); LL-P = the load-bound
  // scheme (install-only replay, so the loader dominates).
  RecoveryScaling(Scheme::kClrP, flags.txns, /*threads_backend=*/false);
  RecoveryScaling(Scheme::kLlrP, flags.txns, /*threads_backend=*/false);
  RecoveryScaling(Scheme::kClrP, flags.txns, /*threads_backend=*/true);
  std::printf(
      "\nExpected shape (paper): CLR worst by far (serial log replay);\n"
      "LLR-P best (parallel, latch-free, write-only reinstall); CLR-P\n"
      "close behind (it re-executes reads too); checkpoint recovery is a\n"
      "small fraction of the total for every scheme. The scaling section\n"
      "reports end-to-end Recover() wall time by recovery thread count.\n");
  WriteJsonReport(flags.json, "fig16_overall_recovery");
  return 0;
}
