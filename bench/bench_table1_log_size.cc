// Table 1: throughput, log volume (GB/min) and size ratios for PL/LL/CL
// on TPC-C and Smallbank. Log bytes are real serialized bytes; throughput
// comes from the calibrated fluid model without checkpointing.
#include "bench/harness.h"
#include "bench/logging_sim.h"

namespace pacman::bench {
namespace {

struct RowResult {
  double tput[3];  // Ktps for PL, LL, CL.
  double gbmin[3];
};

RowResult RunRow(bool tpcc) {
  RowResult r{};
  const logging::LogScheme schemes[3] = {logging::LogScheme::kPhysical,
                                         logging::LogScheme::kLogical,
                                         logging::LogScheme::kCommand};
  for (int i = 0; i < 3; ++i) {
    Env env = tpcc ? MakeTpccEnv(schemes[i]) : MakeSmallbankEnv(schemes[i]);
    double bytes = MeasureBytesPerTxn(&env, 3000);
    LoggingSimParams p;
    p.bytes_per_txn = bytes;
    if (!tpcc) p.txn_cpu_s = 32.0 / 600000.0;  // Smallbank: ~600 Ktps OFF.
    LoggingSimSummary s = Summarize(
        p, SimulateTimeline(p, 120.0, 1.0, /*checkpointing_enabled=*/false));
    r.tput[i] = s.avg_tps / 1000.0;
    r.gbmin[i] = s.log_gb_per_min;
  }
  return r;
}

void PrintRow(const char* name, const RowResult& r) {
  std::printf("%-10s %6.0f %6.0f %6.0f | %8.2f %8.2f %8.2f | %6.2f %6.2f\n",
              name, r.tput[0], r.tput[1], r.tput[2], r.gbmin[0], r.gbmin[1],
              r.gbmin[2], r.gbmin[0] / r.gbmin[2], r.gbmin[1] / r.gbmin[2]);
}

}  // namespace
}  // namespace pacman::bench

int main() {
  using namespace pacman::bench;
  PrintTitle("Table 1 - Log size comparison");
  std::printf("%-10s %6s %6s %6s | %8s %8s %8s | %6s %6s\n", "", "PL", "LL",
              "CL", "PL GB/m", "LL GB/m", "CL GB/m", "PL/CL", "LL/CL");
  std::printf("%-10s %20s (Ktps) | %26s | %13s\n", "", "throughput",
              "log volume", "size ratio");
  PrintRow("TPC-C", RunRow(/*tpcc=*/true));
  PrintRow("Smallbank", RunRow(/*tpcc=*/false));
  std::printf(
      "\nExpected shape (paper): TPC-C log ratios ~11.4x (PL/CL) and\n"
      "~10.8x (LL/CL); Smallbank ratios near 1; CL throughput highest.\n");
  std::printf(
      "Measured ratios run higher: CL records are varint-coded (batch "
      "format v4) while PL/LL row images keep their string bytes, and PL "
      "adds 16 location bytes per tuple.\n");
  return 0;
}
