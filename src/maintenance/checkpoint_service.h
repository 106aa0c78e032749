// Copyright (c) 2026 The PACMAN reproduction authors.
// Continuous background checkpointing + log truncation.
//
// A long-running engine accumulates batch files forever and its recovery
// cost grows with uptime. This service bounds both: a background task
// (one thread on a dedicated pool) periodically
//
//   1. takes a transactionally-consistent checkpoint at
//      TransactionManager::StableTimestamp() (Database::TryTakeCheckpoint;
//      stripes first, barrier, then the checksummed meta as the commit
//      record — see logging/checkpointer.h),
//   2. truncates the log: deletes every *closed* batch file whose entire
//      commit-timestamp interval is <= the durable checkpoint's snapshot
//      timestamp (coverage from the LogManager's closed-batch registry,
//      or from the batch file header for files inherited from an earlier
//      process), never touching any logger's in-progress batch,
//   3. retires superseded checkpoints: keeps the one just taken and
//      deletes every older meta (meta first, so a kill mid-delete leaves
//      orphan stripes, not a meta naming missing stripes) and stripe.
//
// Kill -9 at any point is safe: a torn checkpoint is skipped at recovery
// in favor of the previous durable one (whose covering log suffix is only
// deleted *after* its successor verifies durable), and truncation is
// idempotent — a batch either still exists with all its records or is
// wholly covered by the checkpoint recovery starts from.
//
// Triggers: wall-time interval and/or logged-bytes growth; either alone
// enables the service. Recovery time is then proportional to the
// checkpoint interval, not to uptime.
#ifndef PACMAN_MAINTENANCE_CHECKPOINT_SERVICE_H_
#define PACMAN_MAINTENANCE_CHECKPOINT_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <utility>

#include "common/macros.h"
#include "common/status.h"
#include "common/types.h"
#include "exec/thread_pool.h"
#include "logging/checkpointer.h"

namespace pacman {
class Database;
}  // namespace pacman

namespace pacman::maintenance {

// When the background loop takes a checkpoint. Either trigger alone
// enables the service; both disabled means Database never starts it.
// Every cycle keeps only the checkpoint it took and deletes the batch
// files that checkpoint covers.
struct CheckpointPolicy {
  double interval_s = 0.0;  // Wall-time trigger; <= 0 disables.
  uint64_t log_bytes = 0;   // Logged-bytes-since-last trigger; 0 disables.
};

// Monotone counters (stats()) — survive Stop/Start cycles.
struct MaintenanceStats {
  uint64_t checkpoints = 0;          // Completed (durable) checkpoints.
  uint64_t checkpoint_failures = 0;  // TryTakeCheckpoint non-ok.
  uint64_t truncations = 0;          // Passes that deleted >= 1 batch.
  uint64_t batches_deleted = 0;      // Log batch files removed.
  uint64_t batch_bytes_deleted = 0;  // Their on-device bytes.
  uint64_t stripes_deleted = 0;      // Superseded ckpt files (incl. metas).
  uint64_t last_checkpoint_id = 0;
  Timestamp last_checkpoint_ts = 0;
};

// One completed maintenance cycle, reported to the event hook (e.g.
// bank_server's per-checkpoint log line).
struct CheckpointEvent {
  uint64_t id = 0;
  Timestamp ts = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t batches_deleted = 0;
  uint64_t batch_bytes_deleted = 0;
  uint64_t stripes_deleted = 0;
  double seconds = 0.0;  // Wall time of the whole cycle.
};

using CheckpointEventHook = std::function<void(const CheckpointEvent&)>;

class CheckpointService {
 public:
  // `db` and `pool` must outlive the service. `pool` may be null when the
  // caller only drives RunOnce synchronously (tests); Start requires it.
  // The hook (optional) runs on the maintenance thread after each
  // completed cycle.
  CheckpointService(Database* db, CheckpointPolicy policy,
                    exec::ThreadPool* pool,
                    CheckpointEventHook hook = nullptr);
  ~CheckpointService();  // Stops if still running.
  PACMAN_DISALLOW_COPY_AND_MOVE(CheckpointService);

  // Submits the background loop to the pool. Idempotent while running;
  // Start after Stop begins a fresh loop (stats keep accumulating).
  void Start();
  // Signals the loop and waits for it to exit; any in-flight cycle
  // completes first. Idempotent.
  void Stop();
  bool running() const;

  // One synchronous maintenance cycle: checkpoint, truncate, retire.
  // Skips (returns Ok) when the database is crashed or nothing committed
  // since the last checkpoint. The background loop calls exactly this;
  // tests call it directly for deterministic cycles.
  Status RunOnce(CheckpointEvent* event = nullptr);

  MaintenanceStats stats() const;
  const CheckpointPolicy& policy() const { return policy_; }

 private:
  void Loop();
  // True when a trigger fires (time since last cycle >= interval_s, or
  // logged bytes since last cycle >= log_bytes).
  bool ShouldRun();
  // Deletes closed batch files wholly covered by `meta`.
  void TruncateLog(const logging::CheckpointMeta& meta,
                   CheckpointEvent* event);
  // Keeps `meta`, just verified durable; deletes every older meta (meta
  // first) and stripe, complete or torn.
  void RetireCheckpoints(const logging::CheckpointMeta& meta,
                         CheckpointEvent* event);

  Database* const db_;
  const CheckpointPolicy policy_;
  exec::ThreadPool* const pool_;
  const CheckpointEventHook hook_;

  mutable std::mutex mu_;  // Guards everything below + wakes the loop.
  std::condition_variable cv_;
  bool stop_ = false;
  bool loop_running_ = false;
  MaintenanceStats stats_;
  // Trigger state (one cycle at a time; mutated only by RunOnce/loop).
  double last_cycle_monotonic_s_ = 0.0;
  uint64_t log_bytes_at_last_cycle_ = 0;
  Timestamp last_snapshot_ts_ = 0;
  // Coverage of closed batch files awaiting truncation, keyed by
  // (logger_id, seq) → max commit-ts: fed from the LogManager registry
  // (batches closed by this process) and lazily from batch file headers
  // (files inherited from an earlier process).
  std::map<std::pair<uint32_t, uint64_t>, Timestamp> coverage_;
};

}  // namespace pacman::maintenance

#endif  // PACMAN_MAINTENANCE_CHECKPOINT_SERVICE_H_
