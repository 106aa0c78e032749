// Fig. 20: log-recovery time breakdown for PACMAN (CLR-P): useful work,
// data loading, parameter checking (dynamic analysis) and scheduling, as
// fractions of total busy time, across thread counts. The breakdown is
// the recovery's counted work priced by the cost model, so it is the same
// run to run. `--json PATH` records one row per thread count: the log
// recovery's virtual seconds and, in extra fields, the four breakdown
// seconds (the fig20 rows of BENCH_recovery.json, which CI asserts).
#include "bench/harness.h"

int main(int argc, char** argv) {
  using namespace pacman::bench;
  pacman::CommonFlags defaults;
  defaults.txns = 6000;
  const pacman::CommonFlags flags =
      pacman::ParseCommonFlags(argc, argv, defaults);
  SetDeviceFlags(flags);
  PrintTitle("Fig. 20 - Log recovery time breakdown (TPC-C, CLR-P)");

  Env env = MakeTpccEnv(pacman::logging::LogScheme::kCommand);
  const uint64_t hash = RunWorkload(&env, static_cast<int>(flags.txns));

  std::printf("%-8s %12s %12s %14s %12s\n", "threads", "useful", "loading",
              "param check", "scheduling");
  for (uint32_t threads : {1u, 8u, 16u, 24u, 32u, 40u}) {
    pacman::recovery::RecoveryOptions opts;
    opts.num_threads = threads;
    auto r =
        CrashAndRecover(&env, pacman::recovery::Scheme::kClrP, opts, hash);
    const pacman::recovery::Breakdown& b = r.log.breakdown;
    const double total = b.Total();
    std::printf("%-8u %11.1f%% %11.1f%% %13.1f%% %11.1f%%\n", threads,
                100 * b.useful_work / total, 100 * b.data_loading / total,
                100 * b.param_checking / total, 100 * b.scheduling / total);
    char extra[192];
    std::snprintf(extra, sizeof(extra),
                  ", \"useful_s\": %.9g, \"loading_s\": %.9g, "
                  "\"param_check_s\": %.9g, \"scheduling_s\": %.9g",
                  b.useful_work, b.data_loading, b.param_checking,
                  b.scheduling);
    RecordJson({"fig20", "CLR-P", threads, flags.txns, 0.0, 0.0, 0.0, 0.0,
                r.log.seconds, extra});
  }
  std::printf(
      "\nExpected shape (paper): at 40 threads scheduling grows to ~30%%\n"
      "of recovery time; data loading and parameter checking stay small.\n");
  WriteJsonReport(flags.json, "fig20_time_breakdown");
  return 0;
}
