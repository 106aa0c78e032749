// Copyright (c) 2026 The PACMAN reproduction authors.
// Optimistic MVCC transactions with a Silo-style parallel commit.
//
// Reads run against the snapshot at the transaction's begin timestamp and
// record the stamp (begin_ts) of the version they resolved to; writes are
// buffered. A read returns a view of the version's packed row bytes
// (storage/tuple.h), not a decoded copy; a read of the transaction's own
// buffered write views that write's row, encoded once into storage the
// Transaction owns. Either view stays valid for the Transaction's life,
// commit included, so results can be evaluated after commit, provided
// the caller held a read pin (Pin()) from before Begin() for as long as
// it keeps a view: commits free the versions below the reclamation
// horizon (txn/reclaim_horizon.h), which never passes a version a pinned
// reader views. A transaction run without a pin may view a freed version
// once the horizon passes its snapshot.
//
// Commit never enters a global critical section: it write-locks
// only its own write-set slots (per-TupleSlot stamp locks, acquired in
// canonical (table, key) order so multi-slot lockers cannot deadlock),
// draws an epoch-prefixed commit TID from one atomic counter, validates
// the read set against the per-slot stamps, stages the log record, then
// installs each write with a single release store that doubles as the
// slot unlock. Concurrent committers only ever contend on the slots they
// actually touch plus one fetch-and-max-style CAS.
//
// Why the TID order is replay-correct (the property the durable log and
// all five recovery schemes depend on): for any two committed conflicting
// transactions, the one that serializes first draws the smaller TID.
//  - w-w: the second writer can lock the slot only after the first
//    writer's install released it, which happens after the first draw.
//  - w-r: the reader saw a version the writer installed after drawing,
//    and the reader draws at commit, after its reads.
//  - r-w (anti-dependency): the committed reader validated the slot as
//    unlocked-and-unchanged with one atomic load, so the writer's lock --
//    which precedes the writer's draw -- came after the reader's
//    validation, which follows the reader's draw. This is why the TID is
//    drawn after locking the write set but *before* validating the read
//    set; moving the draw after validation would leave anti-dependencies
//    unordered and break command-log re-execution (CLR / CLR-P).
// Tuple-level replay (PLR/LLR/LLR-P) needs only the weaker per-key
// consequence: versions of one key are installed in TID order, within and
// across epochs (recovery/recovery.h, PerKeyOrderVerifier). PACMAN is
// orthogonal to the CC scheme (§1); this one is chosen because its commit
// order is cheap to make durable.
#ifndef PACMAN_TXN_TRANSACTION_MANAGER_H_
#define PACMAN_TXN_TRANSACTION_MANAGER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/macros.h"
#include "common/spin_latch.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/table.h"
#include "txn/epoch_manager.h"
#include "txn/reclaim_horizon.h"

namespace pacman::txn {

// A buffered write of one transaction.
struct WriteEntry {
  storage::Table* table = nullptr;
  Key key = 0;
  Row row;
  bool deleted = false;
  bool is_insert = false;
  // `row` encoded, once a read of this write has needed it (owned by the
  // Transaction's own_rows_); null until then.
  const uint8_t* encoded = nullptr;
};

struct ReadEntry {
  storage::Table* table = nullptr;
  Key key = 0;
  // Stamp of the version this read resolved to (its begin_ts; tombstones
  // included), or kInvalidTimestamp when the key had no version. Commit
  // validates it against the slot's current stamp word.
  Timestamp observed = kInvalidTimestamp;
  // The slot the read resolved against, cached so validation is one
  // atomic load instead of an index descent (slots are pointer-stable and
  // never removed). nullptr when the key had no slot at read time —
  // validation re-looks it up, since a concurrent insert may have created
  // it since.
  storage::TupleSlot* slot = nullptr;
};

class TransactionManager;

// A single in-flight transaction. Not thread-safe (one worker owns it).
class Transaction {
 public:
  // Points *row at the packed row for `key` visible at the snapshot,
  // observing the transaction's own earlier writes; kNotFound, with *row
  // null, if absent. The view is valid for this Transaction's life.
  Status Read(storage::Table* table, Key key, const uint8_t** row);
  // Decodes the row Read views into *out (tests).
  Status Read(storage::Table* table, Key key, Row* out);
  // Buffers an update (the key need not exist yet; see Insert).
  void Write(storage::Table* table, Key key, Row row);
  // Buffers an insert. Commit fails with kAborted if the key exists.
  void Insert(storage::Table* table, Key key, Row row);
  // Buffers a delete (installs a tombstone version).
  void Delete(storage::Table* table, Key key);

  // Collapses repeated writes to the same (table, key) down to the last
  // one in program order, so each key has exactly one installed version
  // per commit timestamp. Called by Commit; idempotent.
  void CoalesceWrites();

  // Pre-sizes the read/write buffers to the procedure's static footprint
  // (compiled programs know it exactly) so the hot path never regrows
  // them mid-body.
  void ReserveFootprint(size_t reads, size_t writes) {
    read_set_.reserve(reads);
    write_set_.reserve(writes);
  }

  // Declares that no two buffered writes can target the same (table, key).
  // The compiler proves this when every written table has exactly one
  // modification op; Commit then skips the quadratic coalesce scan.
  void MarkWritesDistinct() { needs_coalesce_ = false; }

  Timestamp read_ts() const { return read_ts_; }
  const std::vector<WriteEntry>& write_set() const { return write_set_; }
  const std::vector<ReadEntry>& read_set() const { return read_set_; }

  // Log metadata consumed by the commit hook. For procedural transactions
  // the command log records (proc_id, params); ad-hoc transactions
  // (is_adhoc) are logged via row-level logical records instead (§4.5).
  void SetLogContext(ProcId proc_id, const std::vector<Value>* params,
                     bool is_adhoc) {
    proc_id_ = proc_id;
    params_ = params;
    is_adhoc_ = is_adhoc;
  }
  ProcId proc_id() const { return proc_id_; }
  const std::vector<Value>* params() const { return params_; }
  bool is_adhoc() const { return is_adhoc_; }

  // The forward-processing worker driving this transaction. The logging
  // subsystem routes the commit record to that worker's local log buffer
  // (§4.5 per-core logging); kInvalidWorkerId falls back to the shared
  // logger path.
  void set_worker_id(WorkerId id) { worker_id_ = id; }
  WorkerId worker_id() const { return worker_id_; }

  // Compile-time shard classification hint: true when the procedure's
  // static access summary proves every access of this execution resolves
  // to one key value (StaticAccessSummary::single_shard_static), hence
  // one shard. Lets the sharded commit hook skip the dynamic read-set
  // scan that command logging otherwise needs (replay re-executes reads).
  void set_static_single_shard(bool v) { static_single_shard_ = v; }
  bool static_single_shard() const { return static_single_shard_; }

 private:
  friend class TransactionManager;
  // Encodes `w`'s row into own_rows_ unless a read already did.
  const uint8_t* EncodedWrite(WriteEntry* w);

  Timestamp read_ts_ = kInvalidTimestamp;
  std::vector<ReadEntry> read_set_;
  std::vector<WriteEntry> write_set_;
  // Encoded rows of buffered writes that reads viewed. Kept past Commit
  // and Abort, which clear the write set, since VM locals still view them.
  std::vector<std::unique_ptr<uint8_t[]>> own_rows_;
  ProcId proc_id_ = kAdhocProcId;
  const std::vector<Value>* params_ = nullptr;
  bool is_adhoc_ = true;
  bool needs_coalesce_ = true;
  bool static_single_shard_ = false;
  WorkerId worker_id_ = kInvalidWorkerId;
};

// Result of a successful commit.
struct CommitInfo {
  // Epoch-prefixed commit TID (common/types.h). Orders every pair of
  // conflicting committed transactions; also the version timestamp.
  Timestamp commit_ts = kInvalidTimestamp;
  // Epoch read at the TID draw (<= TidEpoch(commit_ts), which can be
  // larger when the draw raced a concurrent committer in a newer epoch).
  // Provisional either way: loggers restamp records with the epoch of the
  // flush that persists them.
  Epoch epoch = 0;
};

class TransactionManager {
 public:
  // `hook`, if set, runs after validation, inside the commit section and
  // with the write-set slot locks still held, before the writes are
  // installed; the logging subsystem uses it to stage the commit record.
  // Running inside the commit section is what the QuiesceCommits drain
  // barrier relies on: a drained cut contains every TID drawn before the
  // barrier (logging/log_manager.cc, DrainWorkerBuffers).
  using CommitHook =
      std::function<void(const Transaction&, const CommitInfo&)>;

  explicit TransactionManager(EpochManager* epochs)
      : epochs_(epochs) {}
  PACMAN_DISALLOW_COPY_AND_MOVE(TransactionManager);

  // Takes a read pin (txn/reclaim_horizon.h): while it is held, no commit
  // frees a version that Begin() and StableTimestamp() snapshots taken
  // after it resolve to.
  ReadPin Pin() { return horizon_.Pin(); }

  Transaction Begin() {
    Transaction t;
    t.read_ts_ = last_committed_.load(std::memory_order_acquire);
    return t;
  }

  // Validates and installs. Returns kAborted on conflict, in which case
  // nothing was installed (every slot lock taken was released with its
  // stamp intact) and the caller may retry with a fresh Begin().
  Status Commit(Transaction* t, CommitInfo* info);

  void Abort(Transaction* t) {
    t->read_set_.clear();
    t->write_set_.clear();
  }

  void set_commit_hook(CommitHook hook) { hook_ = std::move(hook); }

  // Highest installed commit TID. With parallel commit this is a high
  // watermark, not a stable one: a smaller TID may still be mid-install
  // when a larger one lands. Snapshot reads therefore only use it as a
  // freshness hint (validation is stamp-based); consistent whole-database
  // scans (checkpoint, content hash) must use StableTimestamp().
  Timestamp LastCommitted() const {
    return last_committed_.load(std::memory_order_acquire);
  }

  // A timestamp S such that every commit with TID <= S has fully
  // installed: safe base for a consistent snapshot scan. Implemented as a
  // brief QuiesceCommits barrier, so the wait is bounded by the in-flight
  // commits' own install time even under sustained load.
  Timestamp StableTimestamp();

  // Runs `fn` at a quiesced point of the commit protocol: new commits are
  // held at the entry gate and every in-flight commit has fully finished
  // (log record staged, writes installed) before `fn` runs. The epoch
  // flusher drains the per-worker staging buffers under this barrier,
  // which makes every drain cut an exact TID interval — all TIDs drawn
  // before the barrier are in the cut, all later ones are not. Batch
  // order in the durable log is therefore consistent with commit-TID
  // order for every record, so replaying batches in sequence cannot
  // invert any pair of transactions — in particular not an r-w
  // anti-dependent pair whose reader staged later than the writer, the
  // one ordering that per-slot staging alone would not close over.
  // Serialized against concurrent quiescers; the commit stall is the
  // duration of `fn` plus the tail of in-flight commits (microseconds).
  // Commits the calling thread makes inside `fn` pass the gate: with no
  // other commit possible, a transaction run start to finish inside `fn`
  // cannot fail validation (Database::Execute's escape from OCC
  // starvation). `fn` must not quiesce again. Each barrier also records
  // the commit clock it found, the stable value StableTimestamp() returns
  // and AdvanceHorizon() hands the horizon.
  void QuiesceCommits(const std::function<void()>& fn);

  // One step of the reclamation horizon's flip protocol
  // (txn/reclaim_horizon.h), handed the commit clock that the last
  // QuiesceCommits recorded: at that point every TID the clock had drawn
  // was installed or aborted, so the value is stable. LastCommitted() is
  // not: below it a commit may still be mid-install. Database runs this
  // after each group-commit flush, whose drain quiesces commits, and a
  // few times between flushes. A commit frees, in each slot it writes,
  // the versions below the newest one at or below the horizon.
  void AdvanceHorizon() {
    horizon_.Advance(quiesced_tid_.load(std::memory_order_acquire));
  }
  Timestamp horizon() const { return horizon_.Get(); }

  // Resets the timestamp/commit-order sources after recovery so that new
  // transactions commit after everything that was replayed. The horizon
  // is clamped to the recovered watermark: a recovery that lands below the
  // pre-crash clock (a degraded crash drops unacknowledged commits) draws
  // those TIDs again, and a horizon above them would free versions that
  // snapshots below it still read.
  void ResetAfterRecovery(Timestamp last_committed) {
    last_committed_.store(last_committed, std::memory_order_release);
    next_tid_.store(last_committed, std::memory_order_release);
    quiesced_tid_.store(last_committed, std::memory_order_release);
    horizon_.Clamp(last_committed);
  }

  uint64_t num_aborts() const {
    return num_aborts_.load(std::memory_order_relaxed);
  }

  // Slot-lock acquisitions at commit that found the slot already held by
  // another committer — the commit path's only remaining serialization
  // events. Under the retired global commit latch every concurrent commit
  // serialized (1.0 per commit by construction); here only genuine
  // same-slot conflicts do, which is what bench_fig15's forward section
  // records.
  uint64_t num_commit_lock_waits() const {
    return lock_waits_.load(std::memory_order_relaxed);
  }

 private:
  friend class CommitSectionGuard;

  // Draws the next commit TID: strictly monotone, and floored by the
  // epoch prefix so TidEpoch(tid) >= the epoch current at some point
  // during the draw. The only globally shared step of commit.
  Timestamp DrawCommitTid(Epoch epoch);

  void AdvanceLastCommitted(Timestamp cts);

  // The QuiesceCommits entry gate: commits register in in_flight_ for
  // their whole validate/stage/install span and back out while the gate
  // is closed. seq_cst on the gate/counter pair is what lets the
  // quiescer's "gate closed, counter zero" observation imply no commit is
  // anywhere between draw and install (Dekker-style flag pairing).
  void EnterCommitSection();
  void ExitCommitSection() {
    in_flight_.fetch_sub(1, std::memory_order_release);
  }

  EpochManager* epochs_;
  // TID source. Timestamp 1 is reserved for bulk-loaded data; the first
  // draw lands at MakeTid(first epoch, 0) + 1, past it.
  std::atomic<Timestamp> next_tid_{1};
  std::atomic<Timestamp> last_committed_{1};
  // next_tid_ as the last QuiesceCommits found it, with no commit between
  // draw and install: the stable clock the horizon's flips are handed.
  std::atomic<Timestamp> quiesced_tid_{kInvalidTimestamp};
  std::atomic<uint32_t> in_flight_{0};
  std::atomic<bool> gate_closed_{false};
  std::mutex quiesce_mu_;  // Serializes QuiesceCommits callers.
  std::atomic<uint64_t> num_aborts_{0};
  std::atomic<uint64_t> lock_waits_{0};
  CommitHook hook_;
  ReclaimHorizon horizon_;
};

}  // namespace pacman::txn

#endif  // PACMAN_TXN_TRANSACTION_MANAGER_H_
