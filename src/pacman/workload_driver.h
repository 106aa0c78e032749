// Copyright (c) 2026 The PACMAN reproduction authors.
// Multi-threaded forward-processing driver.
//
// PACMAN's premise is multicore parallelism during forward processing as
// much as during recovery (per-worker command logging, epoch group commit;
// paper §3, §4.5, Appendix A). The driver is a thin *closed-loop client*
// of the open-system submission path (pacman/session.h): it opens one
// session per worker, each driven by its own request stream with a bounded
// number of in-flight submissions, feeding the database's executor pool.
// Scaling benchmarks therefore exercise exactly the code a real client
// would: Session::Submit -> submission queue -> N executor workers with
// OCC retry, per-worker log staging and group commit.
#ifndef PACMAN_PACMAN_WORKLOAD_DRIVER_H_
#define PACMAN_PACMAN_WORKLOAD_DRIVER_H_

#include <functional>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "common/types.h"
#include "common/value.h"

namespace pacman {

class Database;

// Produces the next transaction request: fills `params` and returns the
// procedure id. Must be safe to call from many workers at once with
// distinct Rng/params objects (the workload generators are stateless
// beyond their config, so the bundled workloads all qualify).
using TxnGenerator = std::function<ProcId(Rng*, std::vector<Value>*)>;

struct DriverOptions {
  // Executor workers (and closed-loop client streams). Must be >= 1;
  // Run() aborts with a clear message otherwise.
  uint32_t num_workers = 1;
  // Total transactions across all streams (split as evenly as possible).
  // 0 is a defined no-op: Run() returns immediately with an empty result
  // (num_workers zeroed WorkerStats, nothing committed).
  uint64_t num_txns = 0;
  // Fraction of transactions tagged ad-hoc (§4.5 logging downgrade).
  // Must lie in [0, 1].
  double adhoc_fraction = 0.0;
  // Client stream c draws from an independent RNG seeded with seed + f(c);
  // stream 0 equals a single-threaded run with the same seed.
  uint64_t seed = 42;
  // OCC retry budget per transaction. Aborted attempts retry with
  // exponential backoff + jitter (see Database::ExecOptions), which keeps
  // the high-contention configurations fig15 sweeps from thrashing.
  int max_retries = 100;
};

// Cache-line aligned: the 32-byte struct otherwise packs two workers'
// hot counters into one 64-byte line, and adjacent executors bumping
// `committed`/`retries` per transaction false-share it.
struct alignas(64) WorkerStats {
  uint64_t committed = 0;
  uint64_t failed = 0;   // Exhausted max_retries (kept out of `committed`).
  uint64_t retries = 0;  // Extra OCC attempts beyond the first.
  double seconds = 0.0;  // Busy execution time of this worker.

  double TxnsPerSecond() const {
    return seconds > 0.0 ? static_cast<double>(committed) / seconds : 0.0;
  }
};

struct DriverResult {
  // Per-executor stats. With the shared submission queue the per-worker
  // split of committed transactions is load-balanced, not a fixed 1/N.
  std::vector<WorkerStats> workers;
  uint64_t committed = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;
  double wall_seconds = 0.0;

  double TxnsPerSecond() const {
    return wall_seconds > 0.0 ? static_cast<double>(committed) / wall_seconds
                              : 0.0;
  }
  // The scaling metric benchmarks track: aggregate throughput divided by
  // worker count. Flat per-worker throughput == linear scaling.
  double TxnsPerSecondPerWorker() const {
    return workers.empty() ? 0.0 : TxnsPerSecond() / workers.size();
  }
};

class WorkloadDriver {
 public:
  WorkloadDriver(Database* db, TxnGenerator gen);
  PACMAN_DISALLOW_COPY_AND_MOVE(WorkloadDriver);

  // Runs opts.num_txns transactions through the submission path on
  // opts.num_workers executor workers and blocks until all are done.
  // Starts (and stops) the database's executor pool; aborts if one is
  // already running. Degenerate options are rejected with a clear error
  // (see DriverOptions).
  DriverResult Run(const DriverOptions& opts);

 private:
  Database* db_;
  TxnGenerator gen_;
};

}  // namespace pacman

#endif  // PACMAN_PACMAN_WORKLOAD_DRIVER_H_
