// Copyright (c) 2026 The PACMAN reproduction authors.
// Public facade of the PACMAN reproduction library.
//
// A Database bundles the storage engine, transaction manager, stored
// procedure registry, logging/checkpointing pipeline and the recovery
// subsystem. Clients talk to it through the session API (pacman/session.h):
// typed ProcHandles, per-client Sessions, and TxnResults carrying the
// values procedures Emit(). Typical lifecycle (see examples/quickstart.cc):
//
//   pacman::Database db(options);
//   workload.Install(&db);          // tables + procedures + initial data
//   db.FinalizeSchema();            // static analysis + bytecode compile
//   db.TryTakeCheckpoint();         // Status; bulk-loaded data is not logged
//   ProcHandle proc = db.proc("Transfer");
//   auto session = db.OpenSession();
//   TxnResult r = session->Call(proc, {args...});     // synchronous
//   db.StartWorkers(8);                               // open-system pool
//   TxnFuture f = session->Submit(proc, {args...});   // asynchronous
//   ... f.Get() ... db.StopWorkers();
//   db.Crash();                     // lose main memory
//   auto result = db.Recover(recovery::Scheme::kClrP, recovery_options);
//
// With DatabaseOptions::device = DeviceKind::kFile the durable state lives
// in real directories under options.log_dir and survives a process kill: a
// Database constructed over an existing log_dir starts crashed
// (opened_existing_state()); reinstall schema + procedures, FinalizeSchema,
// then Recover — see README "Persistence backends".
#ifndef PACMAN_PACMAN_DATABASE_H_
#define PACMAN_PACMAN_DATABASE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "analysis/chopping.h"
#include "analysis/global_graph.h"
#include "analysis/local_graph.h"
#include "device/file_device.h"
#include "device/simulated_ssd.h"
#include "device/storage_device.h"
#include "exec/thread_pool.h"
#include "logging/checkpointer.h"
#include "logging/log_manager.h"
#include "maintenance/checkpoint_service.h"
#include "proc/access.h"
#include "proc/compiler.h"
#include "proc/registry.h"
#include "pacman/session.h"
#include "pacman/txn_result.h"
#include "pacman/workload_driver.h"
#include "recovery/recovery.h"
#include "storage/catalog.h"
#include "txn/epoch_manager.h"
#include "txn/transaction_manager.h"

namespace pacman {

// Validated at Database construction: num_ssds, num_loggers,
// epochs_per_batch and ckpt_files_per_ssd must all be >= 1, and a file
// device needs a log_dir (a clear constructor-time error instead of a
// failure deep in the logging pipeline).
struct DatabaseOptions {
  logging::LogScheme scheme = logging::LogScheme::kCommand;
  uint32_t num_ssds = 2;  // Device count (name kept from the paper setup).
  // Durable backend: the default simulated SSDs (virtual-time costs,
  // nothing survives the process) or real directories under `log_dir`
  // (logs and checkpoints survive a process kill; see Database ctor notes
  // on reopening an existing log_dir).
  device::DeviceKind device = device::DeviceKind::kSimulatedSsd;
  std::string log_dir;  // kFile backend: device d uses log_dir/devD.
  // Optional fully-custom backend; overrides `device` when set. Called
  // once per device index in [0, num_ssds).
  device::DeviceFactory device_factory;
  uint32_t num_loggers = 2;
  // Hash-partition count for the whole engine (>= 1). N > 1 shards every
  // table's index/arena, the §4.5 log staging + loggers (num_loggers is
  // forced to N so logger s is shard s's durable stream), checkpoint
  // striping, and recovery (one log pipeline per shard, no cross-shard
  // merge). Single-shard transactions route lock-free to their home
  // shard; cross-shard commits split into per-shard sub-records under the
  // same canonical-order OccStampLock commit and group-commit fence, so
  // every per-shard batch stays an exact TID interval. N == 1 is
  // bit-identical to the unsharded engine.
  uint32_t num_shards = 1;
  uint32_t epochs_per_batch = 5;
  // Epoch auto-advance (and group-commit flush) every N commits; 0 = the
  // caller drives epochs via AdvanceEpoch().
  uint32_t commits_per_epoch = 200;
  uint32_t ckpt_files_per_ssd = 8;
  // --- Continuous maintenance (maintenance/checkpoint_service.h) --------
  // Background checkpoint triggers: wall-time interval and/or logged
  // bytes since the last checkpoint. Either one > 0 enables the service,
  // which starts with the executor pool (StartWorkers / EnsureWorkers)
  // and stops with it (and across Crash()/Recover()). Each cycle keeps
  // only the checkpoint it took and deletes the log batch files that
  // checkpoint covers. Both zero (the default) = no background
  // maintenance; TryTakeCheckpoint() stays manual.
  double checkpoint_interval_s = 0.0;
  uint64_t checkpoint_log_bytes = 0;
  // Optional observer, invoked on the maintenance thread after each
  // completed cycle (bank_server prints its per-checkpoint log line
  // from here).
  maintenance::CheckpointEventHook checkpoint_event_hook;
};

// How recovery graphs execute: on the deterministic simulated multicore
// machine (virtual time; the paper's figure and table benches) or on real
// threads through exec::RunTaskGraph (wall-clock; bank_server, bench/e2e
// and the tests that recover over real threads). Both run the same graphs.
enum class ExecutionBackend { kSimulated, kThreads };

// Overall durability state of a Database.
//
//   kOpen      normal operation.
//   kReadOnly  degraded: a durable-path write failed permanently (group
//              commit cannot make new work durable), so write
//              transactions are rejected with StatusCode::kReadOnly while
//              reads — and the network front-end — keep serving.
//              Recover() restores kOpen.
//   kCrashed   after Crash() (or construction over an existing log_dir):
//              awaiting Recover().
enum class DatabaseState { kOpen, kReadOnly, kCrashed };

struct FullRecoveryResult {
  recovery::RecoveryStats checkpoint;
  recovery::RecoveryStats log;
  double TotalSeconds() const { return checkpoint.seconds + log.seconds; }
};

class Database {
 public:
  explicit Database(DatabaseOptions options = DatabaseOptions{});
  ~Database();
  PACMAN_DISALLOW_COPY_AND_MOVE(Database);

  // --- Client API --------------------------------------------------------
  // Opens a per-client session bound to a fresh worker log-buffer slot.
  // Thread-safe; sessions must not outlive the database.
  std::unique_ptr<Session> OpenSession();

  // Name-resolved typed handle to a registered procedure. Returns an
  // invalid handle (handle.valid() == false) for unknown names; calling
  // through it yields kInvalidArgument.
  ProcHandle proc(const std::string& name) const;
  // Handle by id (e.g. from a workload generator). CHECKs the id exists.
  ProcHandle proc(ProcId id) const;

  // Registers a stored procedure (resolving its table names against the
  // catalog) and returns its handle. Equivalent to registry()->Register
  // plus proc(); the form examples and clients use.
  ProcHandle Register(proc::ProcedureDef def);
  size_t num_procedures() const { return registry_.size(); }
  const std::string& procedure_name(ProcId id) const {
    return registry_.Get(id).name;
  }
  const proc::ProcedureDef& procedure_def(ProcId id) const {
    return registry_.Get(id);
  }

  // Starts the open-system executor pool: `num_workers` workers draining
  // the shared submission queue that Session::Submit feeds. Aborts if a
  // pool is already running. `queue_capacity` bounds queued requests
  // (submitters block when full).
  void StartWorkers(uint32_t num_workers, size_t queue_capacity = 4096);
  // Drains outstanding submissions and stops the executor pool.
  void StopWorkers();
  // Starts the executor pool only if none is running; returns whether a
  // pool is running on return (false exactly when the database is
  // crashed). Unlike StartWorkers this is safe to race with itself and
  // with PostToService — the wire front-end uses it to (re)establish
  // executors lazily after Start() and after a Recover().
  bool EnsureWorkers(uint32_t num_workers, size_t queue_capacity = 4096);
  bool workers_running() const {
    std::shared_lock<std::shared_mutex> l(service_mu_);
    return service_ != nullptr;
  }
  // The running executor service; null when StartWorkers is not active.
  TxnService* service() { return service_.get(); }

  // Submits through the running executor service with the service
  // lifecycle held stable for the duration of the enqueue: returns
  // kUnavailable (never dereferences a dying pool) when no service is
  // running — e.g. between Crash() and Recover() — and kOverloaded under
  // opts.wait_if_full == false when the submission queue is at capacity.
  // `done`, when set, runs exactly once on the executor thread after the
  // transaction finishes (only when Ok is returned). This is the
  // submission entry Session::Post and the network front-end share.
  Status PostToService(ProcId proc, std::vector<Value> args,
                       const TxnOptions& opts, TxnCompletion done = nullptr);

  // Registers and returns a worker log-buffer slot (§4.5 per-core
  // logging). Used by sessions and executor workers; thread-safe.
  // Released slots are recycled, so the buffer set grows with *peak*
  // concurrency, not lifetime session count.
  WorkerId AllocateWorkerSlot();
  // Returns a slot to the free list (any staged records in its buffer are
  // still drained by the next flush). Called by ~Session / ~TxnService.
  void ReleaseWorkerSlot(WorkerId slot);

  // Total serialized log bytes accepted by the loggers so far.
  uint64_t log_bytes() const { return log_manager_->total_bytes(); }

  // --- Engine internals (white-box access for tests and benchmarks) ------
  storage::Catalog* catalog() { return &catalog_; }
  proc::ProcedureRegistry* registry() { return &registry_; }
  txn::TransactionManager* txn_manager() { return &txn_manager_; }
  txn::EpochManager* epoch_manager() { return &epochs_; }
  logging::LogManager* log_manager() { return log_manager_.get(); }
  device::StorageDevice* device(uint32_t i) {
    PACMAN_CHECK_MSG(i < devices_.size(), "device index out of range");
    return devices_[i].get();
  }
  std::vector<device::StorageDevice*> device_ptrs();
  const DatabaseOptions& options() const { return options_; }

  // Runs PACMAN's compile-time static analysis over all registered
  // procedures (local dependency graphs + the global dependency graph)
  // and compiles each one to bytecode. Call after RegisterProcedures and
  // before Execute or Recover.
  void FinalizeSchema();
  const analysis::GlobalDependencyGraph& gdg() const { return gdg_; }
  const std::vector<analysis::LocalDependencyGraph>& ldgs() const {
    return ldgs_;
  }
  // Compiled programs (built by FinalizeSchema).
  const proc::ProgramSet& programs() const { return programs_; }
  // Transaction-chopping GDG over the same procedures (Fig. 18 baseline).
  analysis::GlobalDependencyGraph BuildChoppingGdg() const;

  // --- Forward processing -----------------------------------------------
  // Per-call execution knobs for Execute.
  struct ExecOptions {
    bool adhoc = false;
    // OCC retry budget. Retries back off exponentially with jitter (a few
    // hundred ns up to ~30us per attempt) so conflicting retriers
    // desynchronize instead of re-colliding on the hot keys in lockstep.
    int max_retries = 100;
    // Routes the commit record through this worker's log buffer (§4.5).
    WorkerId worker_id = kInvalidWorkerId;
  };

  // Executes one stored-procedure transaction (with OCC retry) and
  // returns the full result, including the values the procedure Emit()ed.
  // Safe to call from many worker threads concurrently. Prefer the typed
  // session surface (Session::Call / Session::Submit), which validates
  // signatures; this is the engine-level entry they dispatch to.
  TxnResult Execute(ProcId proc, const std::vector<Value>& params,
                    const ExecOptions& opts);
  TxnResult Execute(ProcId proc, const std::vector<Value>& params) {
    return Execute(proc, params, ExecOptions{});
  }

  // Status-only convenience wrapper (tests and benchmark loops).
  Status ExecuteProcedure(ProcId proc, const std::vector<Value>& params,
                          bool adhoc = false, int max_retries = 100) {
    return Execute(proc, params, {adhoc, max_retries, kInvalidWorkerId})
        .status;
  }

  // Runs `opts.num_txns` transactions drawn from `gen` as a closed-loop
  // client of the open-system submission path: `opts.num_workers` executor
  // workers with OCC retry, thread-safe epoch advancement and group
  // commit. Starts and stops the executor pool. See
  // pacman/workload_driver.h.
  DriverResult RunWorkers(const TxnGenerator& gen, const DriverOptions& opts);

  // Advances the group-commit epoch and flushes all loggers; returns the
  // flush cost (virtual seconds / bytes). Serialized internally; safe to
  // call while workers commit.
  logging::FlushCost AdvanceEpoch();
  uint64_t commits() const {
    return num_commits_.load(std::memory_order_relaxed);
  }
  double total_flush_seconds() const {
    return total_flush_seconds_.load(std::memory_order_relaxed);
  }

  // --- Durability --------------------------------------------------------
  // Takes a checkpoint: snapshot at StableTimestamp(), stripes + barrier +
  // meta commit record + readback verification (logging/checkpointer.h).
  // Non-ok means nothing durable was committed under this id and the log
  // must NOT be truncated against it. `out`, when set, receives the
  // committed checkpoint's meta. The background maintenance service calls
  // this too.
  Status TryTakeCheckpoint(logging::CheckpointMeta* out = nullptr);
  logging::Checkpointer* checkpointer() { return checkpointer_.get(); }

  // Background maintenance service (null until a checkpoint trigger is
  // configured and the executor pool first starts).
  maintenance::CheckpointService* maintenance_service() {
    std::lock_guard<std::mutex> g(maint_mu_);
    return maint_.get();
  }
  // Snapshot of the maintenance counters; zeros before the service ever
  // ran. The network front-end surfaces these in Server::stats().
  maintenance::MaintenanceStats maintenance_stats() const {
    std::lock_guard<std::mutex> g(maint_mu_);
    return maint_ != nullptr ? maint_->stats()
                             : maintenance::MaintenanceStats{};
  }

  // Simulates a crash: closes the log streams at the current boundary and
  // drops all in-memory table state. The catalog schemas, registry and
  // static analysis survive (they are compile-time artifacts). A running
  // executor pool is drained and stopped first, so every accepted
  // submission commits (and its future resolves) before the crash point;
  // open sessions stay valid across the crash.
  void Crash();
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  // --- Degraded (read-only) mode ------------------------------------------
  // Entered when a durable-path write fails permanently (group-commit
  // flush or pepoch watermark write exhausted its retries): un-acked
  // write transactions fail cleanly with StatusCode::kReadOnly, reads and
  // the network front-end keep serving, and the first failure's reason is
  // recorded for operators. AdvanceEpoch stops touching the failed device
  // (an explicit durability fence reports kReadOnly instead). Exposed for
  // tests/tools; the engine calls it from AdvanceEpoch. Idempotent — the
  // first reason wins.
  void EnterReadOnly(const std::string& reason);
  bool read_only() const {
    return read_only_.load(std::memory_order_acquire);
  }
  // The recorded reason ("" when not degraded).
  std::string read_only_reason() const;
  DatabaseState state() const {
    if (crashed()) return DatabaseState::kCrashed;
    return read_only() ? DatabaseState::kReadOnly : DatabaseState::kOpen;
  }

  // Durable-path IO health counters, aggregated from the logging layer:
  // transient write/fsync faults absorbed by retry, and flushes that
  // exhausted retries (each of which degraded the database).
  uint64_t io_retries() const { return log_manager_->io_retries(); }
  uint64_t io_failures() const { return log_manager_->io_failures(); }

  // True when the devices already held durable state at construction (a
  // persistent log_dir reopened after a process kill). The database then
  // starts in the crashed state: install the schema and procedures (not
  // the data — the checkpoint carries it), FinalizeSchema(), then Recover.
  bool opened_existing_state() const { return opened_existing_state_; }

  // --- Recovery -----------------------------------------------------------
  // Full recovery: checkpoint restore then log replay under `scheme`.
  // PLR requires scheme kPhysical logs, LLR/LLR-P kLogical, CLR/CLR-P
  // kCommand (checked). After success the database is open again.
  FullRecoveryResult Recover(
      recovery::Scheme scheme, const recovery::RecoveryOptions& options,
      ExecutionBackend backend = ExecutionBackend::kSimulated);

  // Fingerprint of the committed database content (for recovery checks).
  // Call from quiescent points: it scans at LastCommitted(), which is only
  // a consistent cut once no commit is in flight (parallel commit may
  // still be installing a smaller TID; cf. StableTimestamp()).
  uint64_t ContentHash() const {
    return catalog_.ContentHash(txn_manager_.LastCommitted());
  }

 private:
  // Starts the background checkpoint service (no-op unless a trigger is
  // configured). Called whenever the executor pool comes up.
  void StartMaintenance();
  // Stops the service, waiting out any in-flight cycle; the service
  // object (and its counters) survive for a later StartMaintenance.
  // Idempotent. Must be called before tearing down table state (Crash)
  // or members the service reads (~Database).
  void StopMaintenance();

  DatabaseOptions options_;
  std::vector<std::unique_ptr<device::StorageDevice>> devices_;
  storage::Catalog catalog_;
  proc::ProcedureRegistry registry_;
  txn::EpochManager epochs_;
  txn::TransactionManager txn_manager_;
  std::unique_ptr<logging::LogManager> log_manager_;
  std::unique_ptr<logging::Checkpointer> checkpointer_;

  std::vector<analysis::LocalDependencyGraph> ldgs_;
  analysis::GlobalDependencyGraph gdg_;
  proc::ProgramSet programs_;
  bool schema_finalized_ = false;

  // Guards the service_ pointer's lifecycle: submitters (PostToService,
  // workers_running) hold it shared for the duration of one enqueue;
  // StartWorkers/StopWorkers/EnsureWorkers/Crash hold it exclusive across
  // the pointer swap (Crash across its whole body, so a submitter that
  // loses the race observes the crashed state, not a half-dead pool).
  mutable std::shared_mutex service_mu_;
  std::unique_ptr<TxnService> service_;  // Non-null while workers run.

  // Maintenance lifecycle. Lock order: maint_mu_ is leaf-most among the
  // database's own mutexes, but CheckpointService::Stop blocks on an
  // in-flight cycle, so StopMaintenance must never run under service_mu_
  // (the cycle takes no database locks beyond ckpt_mu_).
  mutable std::mutex maint_mu_;
  std::unique_ptr<exec::ThreadPool> maint_pool_;
  std::unique_ptr<maintenance::CheckpointService> maint_;

  std::atomic<uint64_t> num_commits_{0};
  std::mutex ckpt_mu_;  // Serializes checkpoint id issuance.
  uint64_t next_ckpt_id_ = 0;
  std::atomic<double> total_flush_seconds_{0.0};
  std::atomic<bool> crashed_{false};
  std::atomic<bool> read_only_{false};
  mutable std::mutex read_only_mu_;  // Guards read_only_reason_.
  std::string read_only_reason_;
  bool opened_existing_state_ = false;
  std::mutex epoch_mu_;  // Serializes AdvanceEpoch across workers.
  std::mutex slot_mu_;   // Guards the worker-slot allocator state.
  WorkerId next_worker_slot_ = 0;
  std::vector<WorkerId> free_worker_slots_;
};

}  // namespace pacman

#endif  // PACMAN_PACMAN_DATABASE_H_
