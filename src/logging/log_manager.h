// Copyright (c) 2026 The PACMAN reproduction authors.
// Logger threads and group commit (paper §3, Appendix A).
//
// Committed transactions are routed to one of N loggers; each logger packs
// the records of an epoch together and flushes them with one write+fsync
// per epoch (group commit): the flush appends one framed block to the
// logger's current batch file and barriers (format: log_store.h). A logger
// closes its current batch file every `epochs_per_batch` epochs. The
// pepoch watermark advances once every logger has persisted an epoch.
//
// Loggers are passive objects driven at epoch boundaries by the database
// runtime. Every device takes the same append + barrier path; the cost of
// each flush is what the device reports for it — virtual seconds
// (bytes/bandwidth + fsync latency) on a simulated SSD, feeding the
// logging-performance simulations (Figs. 11-12, Tables 1-3), measured
// wall-clock on a real one. The bytes are real serialized bytes.
//
// Concurrent forward processing (§4.5 per-core logging): each worker owns
// a local staging buffer (EnsureWorkerBuffers). Commits tagged with a
// WorkerId append there instead of contending on the shared loggers; epoch
// flush drains all worker buffers atomically, sorts each drained cut by
// commit TID and routes it to the loggers. With the Silo-style parallel
// commit there is no global serial order to restore: the durable stream
// guarantees per-key TID order and conflict order (commits stage while
// holding their write locks — see DrainWorkerBuffers), which is the
// contract recovery replays against (recovery/recovery.h).
#ifndef PACMAN_LOGGING_LOG_MANAGER_H_
#define PACMAN_LOGGING_LOG_MANAGER_H_

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "common/spin_latch.h"

#include "common/macros.h"
#include "common/serializer.h"
#include "device/storage_device.h"
#include "logging/log_record.h"
#include "logging/log_store.h"
#include "storage/catalog.h"
#include "txn/epoch_manager.h"
#include "txn/transaction_manager.h"

namespace pacman::logging {

// Per-epoch flush outcome of one logger (or of FlushAll across loggers).
// `status` is the durability verdict: non-OK means the epoch's records are
// NOT on stable storage (after bounded retries) — the pepoch watermark
// must not advance over them and the caller must escalate (the Database
// degrades to read-only). `bytes` counts only bytes actually persisted.
struct FlushCost {
  double seconds = 0.0;
  uint64_t bytes = 0;
  Status status;
};

class Logger {
 public:
  // `start_seq` resumes this logger's batch stream past the batches an
  // earlier process left on a persistent device (0 on a fresh device).
  // `io_retries`, when given, counts transient device errors absorbed by
  // the bounded retry/backoff around this logger's durable writes.
  Logger(uint32_t id, LogScheme scheme, device::StorageDevice* device,
         uint32_t epochs_per_batch, uint64_t start_seq = 0,
         std::atomic<uint64_t>* io_retries = nullptr);
  PACMAN_DISALLOW_COPY_AND_MOVE(Logger);

  // Appends one record to the current epoch buffer (thread-safe).
  void Append(LogRecord record);

  // Group commit: appends the records owed since the last successful
  // flush to the batch file as one block and barriers, so everything
  // flushed survives a process kill. Closes the batch file every
  // epochs_per_batch epochs. Transient device errors are retried with
  // backoff; on exhausted retries the returned status is non-OK and the
  // unflushed records stay owed to the next flush (they re-stamp into
  // whatever epoch finally persists them). After a failed append or
  // barrier the file may end in a partial or non-durable block, so the
  // next attempt atomically rewrites the whole batch image instead of
  // appending — re-appending would duplicate or garble records.
  FlushCost FlushEpoch(Epoch epoch);

  // Closes the in-progress batch (on shutdown / crash boundary), first
  // persisting any records still owed. Non-OK when they could not be
  // persisted; the batch then stays open so a later close can retry.
  Status Finalize();

  // Drops the in-progress batch and every record still owed, and resumes
  // the stream at a new batch `seq`. Recovery calls this once it has
  // decided what the device holds: records a failed flush left in memory
  // were never acked, and persisting them later would make a later
  // recovery replay what this one excluded.
  void Reset(uint64_t seq);

  // Record bytes made durable so far: the payloads of the blocks this
  // logger persisted, framing excluded. Read by the checkpoint trigger
  // while flushes run, hence atomic.
  uint64_t bytes_logged() const {
    return bytes_logged_.load(std::memory_order_relaxed);
  }
  uint32_t id() const { return id_; }
  // Sequence number of the in-progress batch: the file at this seq (and
  // only it — later seqs don't exist yet) is still mutable and must never
  // be truncated.
  uint64_t open_seq() {
    std::lock_guard<std::mutex> g(mu_);
    return current_.seq;
  }

  // Moves an in-progress batch that holds no record yet up to `seq` (no
  // change otherwise). A batch that closes empty keeps its seq, so a
  // logger that received no record while the others filled a batch falls
  // one seq behind them; LogManager::FlushAll realigns it with this.
  void AlignOpenSeq(uint64_t seq);

 private:
  // Writes the owed records, then barriers, retrying both together.
  // Called with mu_ held.
  device::IoResult PersistOwed();
  // Writes the owed records (the last unflushed_records_ of current_) as
  // one appended block, or the whole image when rewrite_ is set.
  device::IoResult WriteOwed(const std::string& name);
  // After a successful PersistOwed: counts the record bytes it made
  // durable into bytes_logged_, clears what is owed, and returns them.
  uint64_t MarkPersisted();
  // Moves the stream to the next seq. The file already holds every
  // record, so nothing is written.
  void CloseBatch();
  // Starts an empty batch at batch_seq_.
  void OpenBatch();

  const uint32_t id_;
  const LogScheme scheme_;
  device::StorageDevice* device_;
  const uint32_t epochs_per_batch_;
  std::atomic<uint64_t>* const io_retries_;  // May be null.

  std::mutex mu_;
  LogBatch current_;
  uint64_t batch_seq_ = 0;
  uint32_t epochs_in_batch_ = 0;
  std::atomic<uint64_t> bytes_logged_{0};
  size_t unflushed_records_ = 0;
  // Size of the current batch file as written (0 until its first flush),
  // the record bytes among them, and how many of those are counted in
  // bytes_logged_ (the durable ones).
  uint64_t file_bytes_ = 0;
  uint64_t payload_bytes_ = 0;
  uint64_t counted_bytes_ = 0;
  // Set by a failed write or barrier: the file may end in a partial or
  // non-durable block, so the next write replaces the whole image.
  bool rewrite_ = false;
};

class LogManager {
 public:
  // Each logger's batch stream resumes past any batches already present
  // on its device (persistent devices reopened across a process restart).
  // `txns`, when given, provides the commit quiesce barrier drains run
  // under (see DrainWorkerBuffers); without it (unit scaffolding only)
  // drains assume no concurrent committers.
  //
  // `num_shards` > 1 turns on partitioned routing: logger s is shard s's
  // logger (the Database forces num_loggers == num_shards), commits are
  // classified single- vs cross-shard from their actual access sets, and
  // cross-shard commits are split into per-shard sub-records — see
  // OnCommit. `num_shards` == 1 routes by commit TID, exactly the
  // unsharded engine.
  LogManager(LogScheme scheme, std::vector<device::StorageDevice*> devices,
             uint32_t num_loggers, uint32_t epochs_per_batch,
             txn::EpochManager* epochs,
             txn::TransactionManager* txns = nullptr,
             uint32_t num_shards = 1);
  ~LogManager();
  PACMAN_DISALLOW_COPY_AND_MOVE(LogManager);

  // Commit hook body: builds the record for `txn` and routes it to the
  // committing worker's staging buffer (if the transaction carries a
  // WorkerId with a registered buffer) or directly to a logger.
  void OnCommit(const txn::Transaction& txn, const txn::CommitInfo& info);

  // Grows the per-worker staging buffer set to at least `num_workers`
  // buffers (never shrinks). Safe to call while other workers commit:
  // buffers live in lazily allocated fixed-size chunks published through
  // atomic pointers, so readers never observe a reallocation.
  void EnsureWorkerBuffers(uint32_t num_workers);
  size_t num_worker_buffers() const {
    return num_worker_buffers_.load(std::memory_order_acquire);
  }

  // Flushes all loggers for the epoch that just ended and advances pepoch:
  // drains the worker staging buffers into the loggers (in commit-ts
  // order), then group-commits each logger. Returns the max flush cost
  // across loggers (they run in parallel on separate devices) — the
  // group-commit latency contribution. Serialized internally; safe to call
  // while workers keep committing.
  //
  // Durability verdict: the returned status is non-OK when any logger's
  // flush or the pepoch watermark write failed after bounded retries.
  // pepoch is only marked for loggers that flushed successfully, so the
  // watermark never advances over lost bytes, and group commit must not
  // be acknowledged to clients on a non-OK return.
  FlushCost FlushAll(Epoch epoch);

  // Closes all in-progress batches (pre-crash boundary in benchmarks: the
  // paper recovers only committed/persisted transactions). Returns the
  // first close failure (remaining loggers are still finalized).
  Status FinalizeAll();

  // Called by recovery once the devices hold exactly what it recovered
  // (after log truncation): resets every logger (Logger::Reset) and
  // resumes all of them at one seq past the batches on the devices.
  void ResumeAfterRecovery();

  LogScheme scheme() const { return scheme_; }
  uint64_t total_bytes() const;
  // Transient device errors absorbed by retry/backoff on the log path,
  // and flush/pepoch failures that survived the retry budget. Operator
  // health counters (read through Database::io_retries/io_failures).
  uint64_t io_retries() const {
    return io_retries_.load(std::memory_order_relaxed);
  }
  uint64_t io_failures() const {
    return io_failures_.load(std::memory_order_relaxed);
  }
  size_t num_loggers() const { return loggers_.size(); }
  uint32_t num_shards() const { return num_shards_; }
  const std::vector<device::StorageDevice*>& devices() const {
    return devices_;
  }

  // Sharded-routing commit classification counters (num_shards > 1 only;
  // both stay 0 when unsharded). A commit counts as single-shard when its
  // whole record routed to one home logger, cross-shard when it had to be
  // split into per-shard sub-records. The counts live in the per-worker
  // staging buffers (bumped under the buffer latch the commit already
  // holds — a shared atomic here would put one contended line on every
  // sharded commit); these getters sum them, so they are read-side
  // consistent only once committers have quiesced (test/bench readers
  // call them after workers join).
  uint64_t single_shard_commits();
  uint64_t cross_shard_commits();

  // Smallest in-progress batch seq across loggers (the log garbage
  // collection guard): files at or past it may still be appended to and
  // are never truncation candidates. Every file below it is closed and
  // immutable, so its coverage can be read from its batch headers
  // (LogStore::ReadBatchCoverage).
  uint64_t MinOpenSeq();

  // Upper bound on worker log-buffer slots (sessions + executor workers
  // over a database's lifetime): kMaxWorkerBufferChunks chunks of
  // kWorkerBufferChunkSize buffers each.
  static constexpr uint32_t kWorkerBufferChunkSize = 64;
  static constexpr uint32_t kMaxWorkerBufferChunks = 64;

 private:
  // One worker's local log staging area. The latch is effectively
  // uncontended: only the owning worker appends, and only the flusher
  // drains. Cache-line aligned: buffers sit adjacent in chunk arrays and
  // every commit writes its worker's buffer, so an unaligned layout
  // would false-share neighbouring workers' latches.
  struct alignas(64) WorkerBuffer {
    SpinLatch latch;
    std::vector<LogRecord> records;
    // Sharded commit classification tallies (see single_shard_commits()),
    // owned by this buffer's worker; mutated under `latch`.
    uint64_t single_commits = 0;
    uint64_t cross_commits = 0;
  };

  // The staging buffer of worker `w`, or nullptr when no buffer has been
  // registered for it. Lock-free; safe concurrently with growth.
  WorkerBuffer* worker_buffer(WorkerId w);

  // Staging for commits without a registered worker buffer (engine-level
  // Execute calls with kInvalidWorkerId). Routing them through a drained
  // buffer — never straight to a logger — keeps the "every record passes
  // through a quiesced drain cut" invariant uniform: a direct logger
  // append could otherwise race FlushAll's post-barrier flush/close loop
  // and land a conflicting record in an earlier batch than its
  // predecessor's.
  WorkerBuffer fallback_buffer_;

  // Moves every staged worker record into the loggers in commit-ts order.
  // Called with flush_mu_ held, under the commit quiesce barrier.
  void DrainWorkerBuffers();
  // Runs DrainWorkerBuffers under TransactionManager::QuiesceCommits
  // (directly when no transaction manager is attached).
  void DrainUnderBarrier();
  void RouteToLogger(LogRecord record);
  // The seq every logger stream starts at: one past the largest batch on
  // any device.
  uint64_t NextSeqOnDevices() const;
  // Sharded OnCommit body: classifies `txn` against its actual read/write
  // sets, stages either one home-tagged record or per-shard sub-records.
  void StageSharded(const txn::Transaction& txn, const txn::CommitInfo& info,
                    WorkerBuffer* buf);

  const LogScheme scheme_;
  std::vector<device::StorageDevice*> devices_;
  txn::EpochManager* epochs_;
  txn::TransactionManager* txns_;  // Quiesce barrier source; may be null.
  const uint32_t num_shards_;
  std::vector<std::unique_ptr<Logger>> loggers_;

  // Worker staging buffers in chunked storage: committers index it with
  // plain loads while EnsureWorkerBuffers publishes new chunks, so a
  // session can be opened while transactions are in flight. Chunks are
  // allocated under grow_mu_ and freed in the destructor.
  std::array<std::atomic<WorkerBuffer*>, kMaxWorkerBufferChunks>
      buffer_chunks_{};
  std::atomic<uint32_t> num_worker_buffers_{0};
  std::mutex grow_mu_;   // Serializes EnsureWorkerBuffers.
  std::mutex flush_mu_;  // Serializes FlushAll / FinalizeAll.

  std::atomic<uint64_t> io_retries_{0};
  std::atomic<uint64_t> io_failures_{0};
};

// Builds the log record for a committed transaction under `scheme`.
LogRecord MakeRecord(LogScheme scheme, const txn::Transaction& txn,
                     const txn::CommitInfo& info);

}  // namespace pacman::logging

#endif  // PACMAN_LOGGING_LOG_MANAGER_H_
