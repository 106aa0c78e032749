#include "pacman/database.h"

#include <algorithm>
#include <cstdio>
#include <thread>

#include "exec/task_graph_runner.h"
#include "exec/thread_pool.h"
#include "proc/exec_arena.h"
#include "recovery/checkpoint_recovery.h"
#include "recovery/clr.h"
#include "recovery/clr_p.h"
#include "recovery/log_pipeline.h"
#include "recovery/tuple_replay.h"
#include "sim/machine.h"

namespace pacman {

namespace {

// Applied before any member that depends on the options is constructed
// (epochs_ sizes per-logger state from num_loggers). Sharding dictates
// the logger layout: logger s IS shard s's durable stream, so a sharded
// engine runs exactly num_shards loggers regardless of the caller's
// num_loggers (which keeps its meaning for num_shards == 1).
DatabaseOptions NormalizeOptions(DatabaseOptions o) {
  PACMAN_CHECK_MSG(o.num_shards >= 1,
                   "DatabaseOptions::num_shards must be >= 1");
  if (o.num_shards > 1) o.num_loggers = o.num_shards;
  return o;
}

}  // namespace

Database::Database(DatabaseOptions options)
    : options_(NormalizeOptions(std::move(options))),
      registry_(&catalog_),
      epochs_(options_.num_loggers),
      txn_manager_(&epochs_) {
  // Validate the configuration up front: a bad option should fail here,
  // with a name, not deep inside the logging pipeline.
  PACMAN_CHECK_MSG(options_.num_ssds >= 1,
                   "DatabaseOptions::num_ssds must be >= 1");
  PACMAN_CHECK_MSG(options_.num_loggers >= 1,
                   "DatabaseOptions::num_loggers must be >= 1");
  PACMAN_CHECK_MSG(options_.epochs_per_batch >= 1,
                   "DatabaseOptions::epochs_per_batch must be >= 1");
  PACMAN_CHECK_MSG(options_.ckpt_files_per_ssd >= 1,
                   "DatabaseOptions::ckpt_files_per_ssd must be >= 1");
  PACMAN_CHECK_MSG(
      options_.device != device::DeviceKind::kFile ||
          !options_.log_dir.empty(),
      "DatabaseOptions::log_dir is required for the file device");
  for (uint32_t d = 0; d < options_.num_ssds; ++d) {
    if (options_.device_factory) {
      devices_.push_back(options_.device_factory(d));
      PACMAN_CHECK_MSG(devices_.back() != nullptr,
                       "DatabaseOptions::device_factory returned null");
    } else if (options_.device == device::DeviceKind::kFile) {
      device::FileDeviceConfig cfg;
      cfg.dir = options_.log_dir + "/dev" + std::to_string(d);
      devices_.push_back(std::make_unique<device::FileDevice>(cfg));
    } else {
      devices_.push_back(
          std::make_unique<device::SimulatedSsd>(options_.ssd_config));
    }
  }
  // Every table created from here on is partitioned num_shards ways; the
  // logging and checkpoint layers shard with the same ShardOfKey routing.
  catalog_.set_default_num_shards(options_.num_shards);
  log_manager_ = std::make_unique<logging::LogManager>(
      options_.scheme, device_ptrs(), options_.num_loggers,
      options_.epochs_per_batch, &epochs_, &txn_manager_,
      options_.num_shards);
  checkpointer_ = std::make_unique<logging::Checkpointer>(
      &catalog_, options_.scheme, device_ptrs(), options_.num_shards);
  txn_manager_.set_commit_hook(
      [this](const txn::Transaction& t, const txn::CommitInfo& info) {
        log_manager_->OnCommit(t, info);
      });
  // Reopening devices that already hold a durable image (a persistent
  // log_dir after a process kill) starts the database in the crashed
  // state: the caller installs schema + procedures (not data; the
  // checkpoint carries it), runs FinalizeSchema() and then Recover().
  logging::CheckpointMeta boot_meta;
  bool has_state =
      devices_[0]->Exists(logging::LogStore::PepochFileName()) ||
      checkpointer_->ReadLatestMeta(&boot_meta).ok();
  for (const auto& d : devices_) {
    has_state = has_state || !d->ListFiles("log_").empty();
  }
  if (has_state) {
    opened_existing_state_ = true;
    crashed_.store(true, std::memory_order_release);
  }
}

Database::~Database() {
  // Quiesce maintenance before anything else: an in-flight background
  // checkpoint reads tables and devices that are about to be destroyed.
  StopMaintenance();
  // Stop a still-running executor pool before any member is destroyed:
  // members die in reverse declaration order, so ~TxnService (declared
  // mid-class) would otherwise return its worker slots into an already
  // destructed free_worker_slots_. Reached whenever a pool established by
  // EnsureWorkers (e.g. by a network front-end) outlives explicit
  // StopWorkers calls.
  std::unique_lock<std::shared_mutex> l(service_mu_);
  service_.reset();
}

std::unique_ptr<Session> Database::OpenSession() {
  // Cannot use make_unique: the constructor is private to Database.
  return std::unique_ptr<Session>(new Session(this, AllocateWorkerSlot()));
}

ProcHandle Database::proc(const std::string& name) const {
  const proc::ProcedureDef* def = registry_.Find(name);
  return def == nullptr ? ProcHandle{} : ProcHandle(this, def->id);
}

ProcHandle Database::proc(ProcId id) const {
  PACMAN_CHECK_MSG(id < registry_.size(), "unknown procedure id");
  return ProcHandle(this, id);
}

ProcHandle Database::Register(proc::ProcedureDef def) {
  return ProcHandle(this, registry_.Register(std::move(def)));
}

void Database::StartWorkers(uint32_t num_workers, size_t queue_capacity) {
  {
    std::unique_lock<std::shared_mutex> l(service_mu_);
    PACMAN_CHECK_MSG(service_ == nullptr,
                     "executor workers are already running");
    PACMAN_CHECK(!crashed());
    service_ =
        std::make_unique<TxnService>(this, num_workers, queue_capacity);
  }
  StartMaintenance();
}

void Database::StopWorkers() {
  StopMaintenance();
  std::unique_lock<std::shared_mutex> l(service_mu_);
  PACMAN_CHECK_MSG(service_ != nullptr, "executor workers are not running");
  service_.reset();  // ~TxnService drains, fulfills futures, joins.
}

bool Database::EnsureWorkers(uint32_t num_workers, size_t queue_capacity) {
  {
    std::unique_lock<std::shared_mutex> l(service_mu_);
    if (service_ == nullptr) {
      if (crashed()) return false;
      service_ =
          std::make_unique<TxnService>(this, num_workers, queue_capacity);
    }
  }
  StartMaintenance();
  return true;
}

Status Database::PostToService(ProcId proc, std::vector<Value> args,
                               const TxnOptions& opts, TxnCompletion done) {
  std::shared_lock<std::shared_mutex> l(service_mu_);
  if (service_ == nullptr) {
    return Status::Unavailable(crashed()
                                   ? "database crashed; awaiting recovery"
                                   : "no executor workers running");
  }
  return service_->Post(proc, std::move(args), opts, std::move(done));
}

WorkerId Database::AllocateWorkerSlot() {
  std::lock_guard<std::mutex> g(slot_mu_);
  if (!free_worker_slots_.empty()) {
    const WorkerId slot = free_worker_slots_.back();
    free_worker_slots_.pop_back();
    return slot;
  }
  const WorkerId slot = next_worker_slot_++;
  log_manager_->EnsureWorkerBuffers(slot + 1);
  return slot;
}

void Database::ReleaseWorkerSlot(WorkerId slot) {
  std::lock_guard<std::mutex> g(slot_mu_);
  PACMAN_DCHECK(slot < next_worker_slot_);
  free_worker_slots_.push_back(slot);
}

std::vector<device::StorageDevice*> Database::device_ptrs() {
  std::vector<device::StorageDevice*> out;
  out.reserve(devices_.size());
  for (auto& s : devices_) out.push_back(s.get());
  return out;
}

void Database::FinalizeSchema() {
  ldgs_.clear();
  for (const proc::ProcedureDef& def : registry_.procedures()) {
    ldgs_.push_back(analysis::BuildLocalGraph(def));
  }
  gdg_ = analysis::BuildGlobalGraph(ldgs_, registry_.procedures());
  // Compile every procedure to register bytecode, folding the static
  // analysis (slice and chopping piece boundaries, read/write footprints)
  // into each program's summary.
  programs_.Build(registry_, &catalog_, ldgs_,
                  analysis::BuildChoppingGraphs(registry_.procedures()));
  schema_finalized_ = true;
}

analysis::GlobalDependencyGraph Database::BuildChoppingGdg() const {
  std::vector<analysis::LocalDependencyGraph> chopped =
      analysis::BuildChoppingGraphs(registry_.procedures());
  return analysis::BuildGlobalGraph(chopped, registry_.procedures());
}

namespace {

// Aborts after which an attempt runs with the commit gate closed. A
// transaction that keeps losing validation — a long one against a stream
// of short conflicting commits, or one whose thread the host deschedules
// mid-execution — would otherwise burn its whole retry budget and fail.
constexpr int kExclusiveAfterAborts = 10;

// Backoff between OCC retry attempts: exponential in the attempt number
// with multiplicative jitter, so under high contention the conflicting
// retriers spread out instead of re-colliding in lockstep (immediate
// retry thrashes the hot keys and, on an oversubscribed host, steals the
// timeslice from the very commit it is waiting on). The wait is a bounded
// spin that yields periodically; it never sleeps, so the added latency
// stays in the microsecond range.
void BackoffAfterAbort(int attempt) {
  thread_local uint64_t jitter_state =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) | 1;
  // xorshift64*: cheap thread-local jitter source.
  jitter_state ^= jitter_state >> 12;
  jitter_state ^= jitter_state << 25;
  jitter_state ^= jitter_state >> 27;
  const uint64_t rnd = jitter_state * 0x2545f4914f6cdd1dull;
  const int shift = attempt < 8 ? attempt : 8;
  const uint64_t base = uint64_t{64} << shift;
  // Jitter to [0.5x, 1.5x): full-width jitter is what desynchronizes
  // retriers that aborted on the same conflict at the same time.
  const uint64_t iters = base / 2 + rnd % base;
  for (uint64_t i = 0; i < iters; ++i) {
    if ((i & 1023) == 1023) std::this_thread::yield();
#if defined(__GNUC__) || defined(__clang__)
    __asm__ __volatile__("");  // Keep the busy-wait from being elided.
#endif
  }
}

}  // namespace

TxnResult Database::Execute(ProcId proc, const std::vector<Value>& params,
                            const ExecOptions& opts) {
  PACMAN_CHECK(!crashed());
  PACMAN_CHECK_MSG(proc < registry_.size(), "unknown procedure id");
  PACMAN_CHECK_MSG(proc < programs_.size(),
                   "Execute requires FinalizeSchema() after registering "
                   "every procedure");
  const proc::CompiledProgram& prog = programs_.Get(proc);
  // Per-worker arena: registers, locals and row scratch recycled across
  // transactions (zero steady-state allocation).
  thread_local proc::ExecArena arena;
  TxnResult result;
  result.status = Status::Internal("not attempted");
  // One attempt. True when it is final: committed, or failed for a
  // reason a retry cannot fix.
  auto attempt_once = [&]() -> bool {
    txn::Transaction t = txn_manager_.Begin();
    proc::TxnAccess access(&catalog_, &t);
    t.ReserveFootprint(prog.summary.num_reads, prog.summary.num_writes);
    if (!prog.summary.writes_may_alias) t.MarkWritesDistinct();
    // Compile-time shard classification (sharded engines): lets the commit
    // hook route without scanning the access sets.
    if (prog.summary.single_shard_static) t.set_static_single_shard(true);
    proc::VmState vm = arena.Bind(prog, &params);
    Status s = proc::VmExecuteAll(&vm, &access);
    if (!s.ok()) {
      result.status = s;
      return true;
    }
    if (!t.write_set().empty() && read_only()) {
      // Degraded mode: this commit could never be made durable, so it is
      // rejected cleanly *before* installing anything. Read-only
      // transactions (empty write set) fall through and keep serving.
      result.status =
          Status::ReadOnly("database is read-only (degraded): " +
                           read_only_reason());
      return true;
    }
    t.SetLogContext(proc, &params, opts.adhoc);
    t.set_worker_id(opts.worker_id);
    txn::CommitInfo info;
    result.status = txn_manager_.Commit(&t, &info);
    if (!result.status.ok()) return false;
    result.commit_ts = info.commit_ts;
    // The Emit() outputs of the committed attempt: evaluated from the
    // attempt's validated snapshot reads, so they are exactly the values
    // the committed serial order produced.
    if (!prog.results.empty()) result.values = proc::VmEvalResults(&vm);
    return true;
  };
  for (int attempt = 0; attempt < opts.max_retries; ++attempt) {
    if (attempt > 0) BackoffAfterAbort(attempt - 1);
    result.attempts++;
    bool done = false;
    if (attempt < kExclusiveAfterAborts) {
      done = attempt_once();
    } else {
      // Starving: run the attempt with every other commit held at the
      // gate, so nothing can invalidate its reads.
      txn_manager_.QuiesceCommits([&] { done = attempt_once(); });
    }
    if (!done) continue;
    if (result.status.ok()) {
      const uint64_t commits =
          num_commits_.fetch_add(1, std::memory_order_relaxed) + 1;
      if (options_.commits_per_epoch != 0 &&
          commits % options_.commits_per_epoch == 0) {
        AdvanceEpoch();
      }
    }
    return result;
  }
  return result;
}

DriverResult Database::RunWorkers(const TxnGenerator& gen,
                                  const DriverOptions& opts) {
  WorkloadDriver driver(this, gen);
  return driver.Run(opts);
}

logging::FlushCost Database::AdvanceEpoch() {
  std::lock_guard<std::mutex> g(epoch_mu_);
  if (read_only()) {
    // Degraded: the durable path already failed permanently. Advancing
    // the epoch without a flush would silently un-anchor the pepoch
    // watermark, and re-flushing would hammer the dead device; report
    // the state instead (the wire durability fence surfaces this to
    // clients).
    logging::FlushCost cost;
    cost.status = Status::ReadOnly("database is read-only (degraded): " +
                                   read_only_reason());
    return cost;
  }
  const Epoch finished = epochs_.current();
  epochs_.Advance();
  logging::FlushCost cost = log_manager_->FlushAll(finished);
  total_flush_seconds_.fetch_add(cost.seconds, std::memory_order_relaxed);
  if (!cost.status.ok()) {
    // Retries are exhausted inside the logging layer, so a failure here
    // is permanent for this device: degrade rather than abort. Committed
    // work up to the last successful pepoch write stays durable; records
    // beyond it are retained in memory by the loggers and were never
    // acked as durable (the watermark is the ack).
    EnterReadOnly("group-commit flush failed: " + cost.status.message());
  }
  return cost;
}

void Database::EnterReadOnly(const std::string& reason) {
  {
    std::lock_guard<std::mutex> g(read_only_mu_);
    if (read_only_.load(std::memory_order_acquire)) return;
    read_only_reason_ = reason;
    read_only_.store(true, std::memory_order_release);
  }
  std::fprintf(stderr,
               "pacman: entering READ-ONLY degraded mode: %s\n",
               reason.c_str());
}

std::string Database::read_only_reason() const {
  std::lock_guard<std::mutex> g(read_only_mu_);
  return read_only_reason_;
}

Status Database::TryTakeCheckpoint(logging::CheckpointMeta* out) {
  // The snapshot base must be *stable*: with parallel commit,
  // LastCommitted() may already include a TID whose predecessor is still
  // mid-install, and scanning at such a timestamp could miss a committed
  // write that log replay would then drop as "<= checkpoint_ts".
  // StableTimestamp() waits out in-flight commits first.
  //
  // ckpt_mu_ serializes id issuance between the background service and
  // manual calls; a failed attempt burns its id (the files of a later
  // retry never collide with the torn leftovers).
  std::lock_guard<std::mutex> g(ckpt_mu_);
  logging::CheckpointMeta meta;
  return checkpointer_->TakeCheckpoint(
      next_ckpt_id_++, txn_manager_.StableTimestamp(),
      options_.ckpt_files_per_ssd, out != nullptr ? out : &meta);
}

void Database::StartMaintenance() {
  if (options_.checkpoint_interval_s <= 0 &&
      options_.checkpoint_log_bytes == 0) {
    return;
  }
  std::lock_guard<std::mutex> g(maint_mu_);
  if (maint_ == nullptr) {
    maint_pool_ = std::make_unique<exec::ThreadPool>(1, "maint");
    maintenance::CheckpointPolicy policy;
    policy.interval_s = options_.checkpoint_interval_s;
    policy.log_bytes = options_.checkpoint_log_bytes;
    maint_ = std::make_unique<maintenance::CheckpointService>(
        this, policy, maint_pool_.get(), options_.checkpoint_event_hook);
  }
  maint_->Start();
}

void Database::StopMaintenance() {
  std::lock_guard<std::mutex> g(maint_mu_);
  if (maint_ != nullptr) maint_->Stop();
}

void Database::Crash() {
  PACMAN_CHECK(!crashed());
  // Quiesce background maintenance first (and outside service_mu_): an
  // in-flight cycle finishes cleanly — a checkpoint it completes is as
  // durable as a manual one — and nothing scans tables while they reset
  // below. EnsureWorkers restarts the service after recovery.
  StopMaintenance();
  // Held exclusive across the whole crash: a submitter racing this call
  // either lands before the pool drains (its transaction commits and
  // resolves below) or blocks and then observes kUnavailable on the
  // crashed database — never a half-dead pool.
  std::unique_lock<std::shared_mutex> service_lock(service_mu_);
  // An active executor pool is drained and stopped first: every accepted
  // submission commits (and resolves its future) before the crash point,
  // so clients never hold futures into a lost epoch.
  if (service_ != nullptr) {
    service_->Drain();
    service_.reset();
  }
  // Close the log streams at the crash boundary: everything the loggers
  // received is durable (group commit released results only up to pepoch,
  // so recovering slightly more than pepoch is always safe). The final
  // AdvanceEpoch also drains every per-worker staging buffer, so the crash
  // point lies on an epoch boundary with all committed work durable. On a
  // degraded (read-only) database both are allowed to fail — the crash
  // point then simply falls at the last successful pepoch write, which is
  // exactly the durable prefix clients were acked.
  AdvanceEpoch();
  (void)log_manager_->FinalizeAll();
  catalog_.ResetAllTables();
  {
    // kCrashed supersedes kReadOnly; Recover() decides what comes back.
    std::lock_guard<std::mutex> g(read_only_mu_);
    read_only_.store(false, std::memory_order_release);
    read_only_reason_.clear();
  }
  crashed_.store(true, std::memory_order_release);
}

FullRecoveryResult Database::Recover(recovery::Scheme scheme,
                                     const recovery::RecoveryOptions& opts,
                                     ExecutionBackend backend) {
  PACMAN_CHECK_MSG(opts.num_threads >= 1,
                   "RecoveryOptions::num_threads must be >= 1");
  PACMAN_CHECK(crashed());
  PACMAN_CHECK(schema_finalized_);
  // Scheme/log-format compatibility (§6.2).
  switch (scheme) {
    case recovery::Scheme::kPlr:
      PACMAN_CHECK(options_.scheme == logging::LogScheme::kPhysical);
      break;
    case recovery::Scheme::kLlr:
    case recovery::Scheme::kLlrP:
      PACMAN_CHECK(options_.scheme == logging::LogScheme::kLogical);
      break;
    case recovery::Scheme::kClr:
    case recovery::Scheme::kClrP:
      PACMAN_CHECK(options_.scheme == logging::LogScheme::kCommand);
      break;
  }

  FullRecoveryResult result;
  const uint32_t num_ssds = options_.num_ssds;
  std::vector<device::StorageDevice*> devices = device_ptrs();

  logging::CheckpointMeta meta;
  Status s = checkpointer_->ReadLatestMeta(&meta);
  // Replaying from an empty checkpoint would silently drop the bulk-loaded
  // initial data (LoadRow is not logged), so a missing checkpoint is a
  // deployment error, named rather than recovered around.
  PACMAN_CHECK_MSG(s.ok(),
                   "no checkpoint on the devices — recovery needs at least "
                   "one TryTakeCheckpoint() (bulk-loaded data is not "
                   "logged)");
  // A reopened log_dir must be recovered under the layout that wrote it:
  // the checkpoint stripes (and the logger->device striping) index the
  // device vector.
  PACMAN_CHECK_MSG(meta.num_ssds == devices.size(),
                   "checkpoint on the devices was written with a different "
                   "num_ssds than this DatabaseOptions");

  // Replay only up to the pepoch watermark: results past it were never
  // released to clients (Appendix A). When the watermark file is absent
  // the default depends on the medium. On a persistent device the file
  // is written at the end of every completed FlushAll, so its absence
  // means the first flush-all never finished — any batch images present
  // are a per-logger-striped, non-prefix subset of the commit order and
  // must not be replayed (pepoch = 0). On a simulated device nothing
  // predates this process and the streams were closed by Crash(), so the
  // legacy "replay everything" semantics stand. Read before the load
  // pipeline starts: the watermark parameterizes the streaming merge.
  Epoch pepoch = devices[0]->IsPersistent() ? 0 : kMaxTimestamp;
  {
    std::vector<uint8_t> pbytes;
    Status ps =
        devices[0]->ReadFile(logging::LogStore::PepochFileName(), &pbytes);
    if (ps.ok()) {
      Deserializer in(pbytes);
      PACMAN_CHECK(in.GetU64(&pepoch).ok());
    } else {
      // Only genuine absence may fall back to the default: acting on a
      // failed read as if the watermark never existed would replay (sim)
      // or truncate (file) the wrong set of records.
      PACMAN_CHECK_MSG(ps.code() == StatusCode::kNotFound,
                       "cannot read the pepoch watermark file");
    }
  }

  // --- Pipelined load (recovery/log_pipeline.h) ---------------------------
  // Both load stages start here, before any replay graph exists: the
  // checkpoint stripes and every logger's batch stream are read and
  // deserialized on a dedicated load pool. The checkpoint-recovery graph
  // below consumes prefetched stripes; the log-replay graph consumes
  // global batches as the streaming merge publishes them (overlapped with
  // replay on the real-thread backend via per-seq gates).
  const bool overlap = backend == ExecutionBackend::kThreads;
  // A sharded engine recovers each shard on its own lane: one loader per
  // shard, filtered to that shard's logger stream. The streams are
  // disjoint by construction (StageSharded routes every record — or
  // cross-shard sub-record — to its home shard's logger), so there is no
  // cross-shard merge stage at all and the lanes replay independently.
  const uint32_t num_lanes = options_.num_shards;
  exec::ThreadPool load_pool(opts.num_threads);
  recovery::CheckpointPrefetch prefetch(meta, checkpointer_.get(),
                                        &load_pool);
  std::vector<std::unique_ptr<recovery::PipelinedLogLoader>> loaders;
  for (uint32_t lane = 0; lane < num_lanes; ++lane) {
    recovery::LogPipelineOptions lopts;
    lopts.num_threads = opts.num_threads;
    lopts.checkpoint_ts = meta.ts;
    lopts.pepoch = pepoch;
    lopts.num_ssds = num_ssds;
    if (num_lanes > 1) lopts.logger_filter = lane;
    loaders.push_back(std::make_unique<recovery::PipelinedLogLoader>(
        options_.scheme, devices, &load_pool, lopts));
    loaders.back()->Start();
  }

  // Runs a recovery graph on the chosen backend and returns its seconds:
  // the makespan on `machine` in virtual time, or the wall time on a pool
  // of `threads` real threads.
  auto run_graph = [backend](sim::TaskGraph& graph,
                             const sim::MachineConfig& machine,
                             uint32_t threads) -> double {
    if (backend == ExecutionBackend::kSimulated) {
      return sim::Machine(machine).Run(graph);
    }
    return exec::RunTaskGraph(&graph, threads);
  };

  // --- Stage 1: checkpoint recovery -------------------------------------
  {
    sim::TaskGraph graph;
    recovery::RecoveryCounters counters;
    recovery::BuildCheckpointRecovery(meta, prefetch, devices, &catalog_,
                                      scheme, opts, &graph, &counters);
    result.checkpoint.seconds =
        run_graph(graph, recovery::StandardMachine(num_ssds, opts.num_threads),
                  opts.num_threads);
    counters.FillStats(&result.checkpoint);
  }

  // --- Stage 2: log recovery ---------------------------------------------
  recovery::RecoveryOptions log_opts = opts;
  log_opts.checkpoint_ts = meta.ts;

  // Builds and runs the replay graph for one lane's batch stream — the
  // whole log (single lane) or one shard's logger stream — and returns the
  // chosen backend's seconds for it. Counters are shared across lanes
  // (atomic). With `overlap` the graph is built against the loader's
  // batch skeletons and gated per batch, so replay of batch k overlaps
  // the load of batch k+1; the merge verifies each batch's per-key commit
  // order before its gate opens.
  recovery::RecoveryCounters counters;
  auto run_log_replay = [&](recovery::PipelinedLogLoader* loader,
                            uint32_t lane_threads) -> double {
    const std::vector<recovery::GlobalBatch>& batches = loader->batches();
    recovery::RecoveryOptions lane_opts = log_opts;
    lane_opts.num_threads = lane_threads;
    sim::TaskGraph graph;
    sim::MachineConfig machine_config =
        recovery::StandardMachine(num_ssds, lane_threads);
    std::vector<sim::TaskId> gates;
    const std::vector<sim::TaskId>* gates_ptr = nullptr;
    if (overlap) {
      gates = recovery::AddBatchGates(loader, &graph,
                                      recovery::CpuGroup(num_ssds));
      gates_ptr = &gates;
    }
    switch (scheme) {
      case recovery::Scheme::kPlr:
      case recovery::Scheme::kLlr:
      case recovery::Scheme::kLlrP:
        recovery::BuildTupleLogReplay(scheme, batches, devices, &catalog_,
                                      lane_opts, &graph, &counters,
                                      gates_ptr, num_lanes);
        break;
      case recovery::Scheme::kClr:
        recovery::BuildClrReplay(batches, devices, &catalog_, programs_,
                                 lane_opts, &graph, &counters, gates_ptr);
        break;
      case recovery::Scheme::kClrP: {
        const analysis::GlobalDependencyGraph* gdg =
            lane_opts.gdg_override != nullptr ? lane_opts.gdg_override
                                              : &gdg_;
        recovery::ClrPLayout layout;
        if (overlap && !batches.empty()) {
          // Core assignment from the first merged batch as the workload
          // sample (see PlanClrPLayout): waiting for the whole log here
          // would forfeit the load/replay overlap, and the assignment
          // only shapes scheduling.
          const recovery::GlobalBatch* first = loader->WaitBatch(0);
          PACMAN_CHECK_MSG(first != nullptr, loader->error_message());
          std::vector<recovery::GlobalBatch> sample(1, *first);
          layout = recovery::PlanClrPLayout(*gdg, sample, &registry_,
                                            num_ssds, lane_opts);
        } else {
          layout = recovery::PlanClrPLayout(*gdg, batches, &registry_,
                                            num_ssds, lane_opts);
        }
        recovery::BuildClrPReplay(*gdg, batches, devices, &catalog_,
                                  &registry_, programs_, lane_opts, layout,
                                  &graph, &counters, gates_ptr);
        machine_config = layout.machine;
        break;
      }
    }
    return run_graph(graph, machine_config, lane_threads);
  };
  // The simulated replay backend is a virtual-time model and wants the
  // full batch vector up front — the load itself still ran multicore (and
  // overlapped checkpoint restore above).
  auto wait_all = [](recovery::PipelinedLogLoader* loader) {
    Status ls = loader->WaitAll();
    PACMAN_CHECK_MSG(ls.ok(), loader->error_message());
  };

  // The replay cores are split evenly across the lanes: the lanes are
  // balanced by the shard hash, and a lane never blocks on another.
  const uint32_t lane_threads = std::max(1u, log_opts.num_threads / num_lanes);
  if (!overlap) {
    for (const auto& loader : loaders) wait_all(loader.get());
  }
  if (!overlap && num_lanes > 1 && scheme == recovery::Scheme::kLlrP) {
    // Virtual time, latch-free tuple replay: all lanes' graphs run on ONE
    // machine — each lane keeps its own serial device core (the streams
    // are disjoint), but the CPU pool is shared, so the simulated
    // scheduler balances replay work across lanes exactly as a real
    // machine's cores would. A static lane_threads-per-lane split would
    // charge the makespan of the unluckiest lane; the shard hash balances
    // the streams well but not perfectly, and latch-free installs gain
    // nothing from bounding how many threads work one lane.
    sim::TaskGraph graph;
    for (const auto& loader : loaders) {
      recovery::BuildTupleLogReplay(scheme, loader->batches(), devices,
                                    &catalog_, log_opts, &graph, &counters,
                                    nullptr, num_lanes);
    }
    result.log.seconds = run_graph(
        graph, recovery::StandardMachine(num_ssds, log_opts.num_threads),
        log_opts.num_threads);
  } else {
    // Every other case replays each lane on its own lane_threads-core
    // machine or pool; the stage lasts as long as its slowest lane. For
    // the latched schemes (PLR/LLR) the bound is not just conservatism:
    // capping a lane at lane_threads caps how many threads contend on
    // that lane's tuples, so each write pays LatchCost(lane_threads)
    // instead of the full pool's — per-shard lanes genuinely shrink the
    // latch-contention width. CLR-P additionally builds per-lane machine
    // layouts (its planner allocates per-block core shares), which cannot
    // share one machine config. On real threads the lanes run
    // concurrently, each behind its own per-batch gates.
    std::vector<double> lane_seconds(num_lanes);
    std::vector<std::thread> lane_runners;
    for (uint32_t lane = 0; lane < num_lanes; ++lane) {
      auto replay = [&, lane] {
        lane_seconds[lane] =
            run_log_replay(loaders[lane].get(), lane_threads);
      };
      if (overlap) {
        lane_runners.emplace_back(replay);
      } else {
        replay();
      }
    }
    for (std::thread& runner : lane_runners) runner.join();
    result.log.seconds =
        *std::max_element(lane_seconds.begin(), lane_seconds.end());
  }
  counters.FillStats(&result.log);

  // Already returned for the simulated backend; after an overlapped run
  // every gate has passed, so this only surfaces a failure that struck
  // past the last published batch.
  for (const auto& loader : loaders) wait_all(loader.get());

  Timestamp max_cts = meta.ts;
  for (const auto& loader : loaders) {
    max_cts = std::max(max_cts, loader->max_commit_ts());
  }
  txn_manager_.ResetAfterRecovery(max_cts);
  // Continuity across a process restart: commit timestamps resume past
  // the replayed log (above), the epoch counter resumes past the epoch
  // floor (else the pepoch watermark would regress below already-durable
  // records and a later recovery would drop them), and the next
  // checkpoint gets a fresh id. All three are no-ops for an in-process
  // Crash()/Recover() cycle. The floor is the durable pepoch watermark;
  // if the watermark file itself never made it to the device (kill before
  // the first FlushAll finished), every loaded record was replayed, so
  // the max replayed epoch serves instead.
  const bool have_floor = pepoch != kMaxTimestamp;
  Epoch epoch_floor = have_floor ? pepoch : 0;
  bool needs_truncation = false;
  bool any_batches = false;
  for (const auto& loader : loaders) {
    if (!have_floor) {
      epoch_floor = std::max(epoch_floor, loader->max_record_epoch());
    }
    needs_truncation = needs_truncation || loader->zombie_records() > 0 ||
                       loader->torn_files() > 0;
    any_batches = any_batches || loader->num_batches() > 0;
  }
  if (have_floor || any_batches) {
    epochs_.ResetAfterRecovery(epoch_floor);
  }
  if (needs_truncation) {
    // Erase beyond-watermark "zombie" records (a kill mid-FlushAll can
    // persist some loggers' blocks without the watermark) from persistent
    // devices: excluded from this replay, they must not become replayable
    // once the new epoch counter catches up with their stamps. Torn files
    // (a kill mid-append) are rewritten clean too: the next batch makes
    // them interior, where a short block is loud corruption. Gated on
    // the in-memory scan above so the common clean recovery never
    // re-reads the log directory.
    PACMAN_CHECK(logging::LogStore::TruncateBeyondWatermark(
                     options_.scheme, devices, epoch_floor)
                     .ok());
  }
  // The devices now hold exactly what was recovered. Records a failed
  // flush left in the loggers were never acked: drop them, and start
  // every stream past the files on the devices.
  log_manager_->ResumeAfterRecovery();
  {
    std::lock_guard<std::mutex> g(ckpt_mu_);
    next_ckpt_id_ = std::max(next_ckpt_id_, meta.id + 1);
  }
  {
    // A successful recovery re-opens the database fully: the degraded
    // state (if any) belonged to the previous incarnation's device.
    std::lock_guard<std::mutex> g(read_only_mu_);
    read_only_.store(false, std::memory_order_release);
    read_only_reason_.clear();
  }
  crashed_.store(false, std::memory_order_release);
  return result;
}

}  // namespace pacman
