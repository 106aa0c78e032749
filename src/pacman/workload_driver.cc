#include "pacman/workload_driver.h"

#include <chrono>
#include <thread>

#include "pacman/database.h"
#include "pacman/session.h"
#include "workload/adhoc.h"

namespace pacman {

namespace {

// Per-client share of the bounded submission queue (capacity =
// num_workers * kPipelineDepth): a client stream blocks whenever the
// executors fall this many transactions behind it, so executors never
// starve between requests.
constexpr size_t kPipelineDepth = 256;

}  // namespace

WorkloadDriver::WorkloadDriver(Database* db, TxnGenerator gen)
    : db_(db), gen_(std::move(gen)) {
  PACMAN_CHECK(db_ != nullptr);
  PACMAN_CHECK(gen_ != nullptr);
}

DriverResult WorkloadDriver::Run(const DriverOptions& opts) {
  PACMAN_CHECK_MSG(opts.num_workers >= 1,
                   "DriverOptions::num_workers must be >= 1");
  PACMAN_CHECK_MSG(opts.max_retries >= 1,
                   "DriverOptions::max_retries must be >= 1");
  PACMAN_CHECK_MSG(
      opts.adhoc_fraction >= 0.0 && opts.adhoc_fraction <= 1.0,
      "DriverOptions::adhoc_fraction must lie in [0, 1]");

  const uint32_t n = opts.num_workers;
  DriverResult result;
  result.workers.resize(n);
  // num_txns == 0 is a defined no-op (see DriverOptions): nothing to
  // submit, so do not spin up the executor pool at all.
  if (opts.num_txns == 0) return result;

  PACMAN_CHECK_MSG(!db_->workers_running(),
                   "WorkloadDriver needs exclusive use of the executor "
                   "pool; call StopWorkers first");
  db_->StartWorkers(n, /*queue_capacity=*/n * kPipelineDepth);

  // One closed-loop client stream per worker, submitting fire-and-forget
  // through its session (Session::Post): the bounded submission queue is
  // the closed loop's window — a client blocks whenever the executors are
  // kPipelineDepth transactions behind its stream, and skipping the
  // per-transaction future keeps the driver within noise of direct
  // execution. Stream c draws from an independent RNG; stream 0 replays
  // the exact single-threaded sequence for `seed`.
  auto run_client = [&](uint32_t c, uint64_t txns) {
    std::unique_ptr<Session> session = db_->OpenSession();
    Rng rng(opts.seed + static_cast<uint64_t>(c) * 0x9e3779b97f4a7c15ull);
    std::vector<Value> params;
    TxnOptions topts;
    topts.max_retries = opts.max_retries;
    for (uint64_t i = 0; i < txns; ++i) {
      ProcId proc = gen_(&rng, &params);
      topts.adhoc = workload::TagAdhoc(&rng, opts.adhoc_fraction);
      PACMAN_CHECK(
          session->Post(db_->proc(proc), std::move(params), topts).ok());
      params.clear();  // Defined state after the move.
    }
  };

  const auto wall_start = std::chrono::steady_clock::now();
  if (n == 1) {
    // A single stream runs on the calling thread.
    run_client(0, opts.num_txns);
  } else {
    const uint64_t base = opts.num_txns / n;
    const uint64_t remainder = opts.num_txns % n;
    std::vector<std::thread> clients;
    clients.reserve(n);
    for (uint32_t c = 0; c < n; ++c) {
      const uint64_t txns = base + (c < remainder ? 1 : 0);
      clients.emplace_back(run_client, c, txns);
    }
    for (std::thread& t : clients) t.join();
  }
  // Wait for the executors to finish the submitted backlog, snapshot the
  // per-executor stats, then tear the pool down.
  db_->service()->Drain();
  result.workers = db_->service()->worker_stats();
  db_->StopWorkers();
  const auto wall_end = std::chrono::steady_clock::now();
  result.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();

  for (const WorkerStats& w : result.workers) {
    result.committed += w.committed;
    result.failed += w.failed;
    result.retries += w.retries;
  }
  return result;
}

}  // namespace pacman
