// Fig. 11: throughput and latency during transaction processing under
// physical (PL), logical (LL), command (CL) logging and OFF, with one or
// two SSDs and checkpointing every 200 s.
//
// Bytes-per-transaction is measured from the real engine + serializers;
// the 600 s timeline comes from the fluid logging model (bench/
// logging_sim.h) configured like the paper's testbed (32 workers, 95 Ktps
// CPU ceiling, 520 MB/s SSD writes, 20 GB checkpoint).
#include "bench/harness.h"
#include "bench/logging_sim.h"

namespace pacman::bench {
namespace {

// Prints one scheme's row: its B/txn and six 100-second windows of the
// fluid model's timeline (throughput and worst latency), like the
// figure's trace.
void PrintTimelineRow(const char* name, double bytes_per_txn,
                      uint32_t num_ssds, bool checkpointing_enabled) {
  LoggingSimParams p;
  p.bytes_per_txn = bytes_per_txn;
  p.num_ssds = num_ssds;
  auto timeline = SimulateTimeline(p, 600.0, 1.0, checkpointing_enabled);
  std::printf("%-7s %10.0f |", name, bytes_per_txn);
  for (int w = 0; w < 6; ++w) {
    double tps = 0.0, lat = 0.0;
    for (int i = w * 100; i < (w + 1) * 100; ++i) {
      tps += timeline[i].tps;
      lat = std::max(lat, timeline[i].latency_s);
    }
    std::printf(" %5.1f/%-5.1f", tps / 100 / 1000, lat * 1000);
  }
  std::printf("\n");
}

void RunConfig(uint32_t num_ssds, uint32_t threads) {
  std::printf("\n--- Fig. 11%s: %u SSD(s), %u worker(s) ---\n",
              num_ssds == 1 ? "a" : "b", num_ssds, threads);
  std::printf("%-7s %10s | per-100s window: tps (Ktps) / p.latency (ms)\n",
              "scheme", "B/txn");
  for (auto scheme :
       {logging::LogScheme::kPhysical, logging::LogScheme::kLogical,
        logging::LogScheme::kCommand}) {
    Env env = MakeTpccEnv(scheme);
    DriverResult forward;
    const double bytes_per_txn =
        MeasureBytesPerTxn(&env, 3000, 0.0, 42, threads, &forward);
    PrintForwardStats(logging::LogSchemeName(scheme), forward);
    PrintTimelineRow(logging::LogSchemeName(scheme), bytes_per_txn, num_ssds,
                     /*checkpointing_enabled=*/true);
  }
  // OFF logs nothing and never checkpoints: the fluid model alone.
  PrintTimelineRow("OFF", 0.0, num_ssds, /*checkpointing_enabled=*/false);
}

}  // namespace
}  // namespace pacman::bench

int main(int argc, char** argv) {
  const pacman::CommonFlags flags = pacman::ParseCommonFlags(argc, argv);
  pacman::bench::SetDeviceFlags(flags);
  const uint32_t threads = flags.threads;
  pacman::bench::PrintTitle(
      "Fig. 11 - Throughput and latency during transaction processing "
      "(TPC-C)");
  pacman::bench::RunConfig(1, threads);
  pacman::bench::RunConfig(2, threads);
  std::printf(
      "\nExpected shape (paper): PL/LL throughput dips ~25%% and latency\n"
      "spikes during checkpoint windows on one SSD, improving with two\n"
      "SSDs but still ~20%% below OFF; CL stays within ~6%% of OFF with\n"
      "flat low latency.\n");
  return 0;
}
