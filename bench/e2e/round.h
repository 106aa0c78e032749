// Copyright (c) 2026 The PACMAN reproduction authors.
// One measured round of the end-to-end benchmark, and the four workloads.
//
// A round builds a fresh database on real files, warms it up, checkpoints
// it, runs the measured forward phase, then crashes it and recovers it,
// checking the content hash. A run is a sequence of rounds, each in its
// own child process (bench_e2e.cc), and every metric is a median over
// rounds or over the windows of their forward phases: one slow round (a
// noisy neighbour, a slow fsync on a shared disk) moves nothing. Rounds
// also cap memory: the engine never collects old versions, so one long
// forward phase would grow without bound.
#ifndef PACMAN_BENCH_E2E_ROUND_H_
#define PACMAN_BENCH_E2E_ROUND_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "logging/log_record.h"
#include "recovery/recovery.h"

namespace pacman::e2e {

enum class Traffic { kBank, kTpcc, kSmallbankLarge };

struct WorkloadSpec {
  const char* name;
  Traffic traffic;
  logging::LogScheme log;
  recovery::Scheme recovery;
  // Calls go over TCP to an in-process net::Server instead of through
  // Session::Call. Either way the load is a closed loop of kClients
  // clients, each with one call in flight.
  bool wire = false;
  uint64_t warmup_txns = 0;
  uint64_t forward_txns = 0;
  // Background checkpoint trigger (logged bytes; 0 = service off). With
  // it on, the round takes an explicit final checkpoint after the forward
  // phase and runs `tail_txns` more before the crash, so recovery always
  // restores one checkpoint and replays a fixed, non-empty tail.
  uint64_t checkpoint_log_bytes = 0;
  uint64_t tail_txns = 0;
  // Wall seconds of one round on the reference host (4 vCPU): a run of S
  // seconds measures max(3, S / round_s) rounds, so both sides of an A/B
  // comparison do the same work.
  double round_s = 0.0;
};

// The workloads, by name; null when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

// Client threads (each with its own Session or connection), and the
// threads Recover() runs on.
inline constexpr uint32_t kClients = 2;
inline constexpr uint32_t kRecoveryThreads = 4;

// Set-ups per round: a run reports the median set-up time of several
// databases per round.
inline constexpr uint32_t kSetupsPerRound = 3;

// The forward phase is cut into windows of kWindowTxns consecutive
// completions; throughput and latency percentiles are taken per window.
inline constexpr uint32_t kWindowTxns = 2500;
inline constexpr uint32_t kMaxWindows = 160;

struct Window {
  double txn_per_s;
  // Median latency of each procedure, weighted by its share of the
  // window's calls. The plain median of a mix can land in the gap between
  // two procedures' latencies (TPC-C: about half the calls take 2-5 us,
  // the other half 20-25 us), where it jumps with the mix.
  double p50_us;
  double p99_us;  // Over all calls of the window.
};

// What one round measured. Trivially copyable, so a round run in a child
// process can send it back through a pipe as plain bytes.
struct RoundResult {
  bool traced;
  // Set-up: construct + Install + FinalizeSchema + initial checkpoint,
  // each of the round's set-ups. The rest is from the last (kept) one.
  double setup_s[kSetupsPerRound];
  double install_s;
  double finalize_s;
  // Resident memory Install and FinalizeSchema added: the loaded tables.
  double table_mb;
  uint64_t gdg_blocks;

  // Measured forward phase.
  uint64_t attempted;
  uint64_t committed;
  uint64_t failed;
  uint64_t retries;
  double forward_s;
  uint32_t num_windows;
  Window windows[kMaxWindows];
  double call_p999_us;  // Over the whole phase.
  double late_p99_us;   // Client's own time between calls.
  uint64_t disk_bytes;
  uint64_t fsyncs;
  uint64_t log_bytes;
  double flush_s;
  uint64_t aborts;
  uint64_t lock_waits;
  uint64_t wire_bytes;
  uint64_t call_errors;
  uint64_t shed;
  uint64_t maint_checkpoints;
  uint64_t maint_failures;
  uint64_t maint_ckpt_bytes;
  uint64_t maint_truncated_bytes;
  double maint_busy_s;

  // Crash, then Recover() on kRecoveryThreads threads.
  double crash_s;
  double recover_s;
  double ckpt_restore_s;  // Recover()'s own checkpoint-stage seconds.
  double log_replay_s;    // Recover()'s own log-stage seconds.
  uint64_t records_replayed;
  uint64_t tuples_restored;
  uint64_t latch_acquisitions;

  // Peak resident memory of the round's process.
  double peak_rss_mb;

  // Standalone recovery probes (traced rounds only).
  double probe_load_s;
  uint64_t probe_load_bytes;
  double probe_ckpt_read_s;
};

// The p-quantile of `v` (nearest rank); 0 for an empty `v`.
double Percentile(std::vector<double> v, double p);

// Records a named correctness check; the first failure of a name sticks.
void Check(const std::string& name, bool ok, const std::string& detail = "");
// name -> passed, for every check recorded so far.
std::map<std::string, bool> Checks();

// Runs one round. `dir` is an existing directory the round's database
// files go under (removed again before return).
RoundResult RunRound(const WorkloadSpec& w, uint64_t seed,
                     const std::string& dir, bool traced);

}  // namespace pacman::e2e

#endif  // PACMAN_BENCH_E2E_ROUND_H_
