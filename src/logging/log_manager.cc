#include "logging/log_manager.h"

#include <algorithm>
#include <iterator>

#include "device/io_retry.h"
#include "storage/shard.h"

namespace pacman::logging {

namespace {

// Log-path retry budget: a handful of quick attempts. Group commit holds
// back every committer, so the total worst-case stall stays in the tens
// of milliseconds; anything the budget cannot absorb is treated as a
// permanent device failure and escalated.
constexpr device::IoRetryPolicy kLogRetryPolicy{};

}  // namespace

Logger::Logger(uint32_t id, LogScheme scheme, device::StorageDevice* device,
               uint32_t epochs_per_batch, uint64_t start_seq,
               std::atomic<uint64_t>* io_retries)
    : id_(id), scheme_(scheme), device_(device),
      epochs_per_batch_(epochs_per_batch), io_retries_(io_retries),
      batch_seq_(start_seq) {
  current_.logger_id = id_;
  current_.seq = batch_seq_;
}

void Logger::Append(LogRecord record) {
  std::lock_guard<std::mutex> g(mu_);
  unflushed_records_++;
  current_.records.push_back(std::move(record));
}

FlushCost Logger::FlushEpoch(Epoch epoch) {
  std::lock_guard<std::mutex> g(mu_);
  // Group-commit membership defines the durable epoch: the records this
  // flush persists are stamped with the flushing epoch, so on-device
  // "record.epoch <= pepoch" means exactly "persisted by a completed
  // flush". Each flush drains a prefix-consistent cut of the commit order
  // (see DrainWorkerBuffers), so recovery bounded by pepoch replays a
  // prefix even when a straggler commit slipped past a drain — the race
  // the FlushAll comment describes.
  PACMAN_DCHECK(unflushed_records_ <= current_.records.size());
  for (size_t i = current_.records.size() - unflushed_records_;
       i < current_.records.size(); ++i) {
    current_.records[i].epoch = epoch;
  }
  // A failure leaves the unflushed counters intact: the records stay owed
  // to the next flush (which re-stamps them), and the caller must not
  // acknowledge this epoch.
  device::IoResult r = PersistOwed();
  FlushCost cost;
  cost.seconds = r.seconds;
  if (!r.ok()) {
    cost.status = std::move(r.status);
    return cost;
  }
  cost.bytes = MarkPersisted();
  if (++epochs_in_batch_ >= epochs_per_batch_) CloseBatch();
  return cost;
}

uint64_t Logger::MarkPersisted() {
  // A rewrite re-encodes earlier records against the whole batch's bases,
  // which never shrinks them, so the file's record bytes only grow.
  PACMAN_DCHECK(payload_bytes_ >= counted_bytes_);
  const uint64_t bytes = payload_bytes_ - counted_bytes_;
  counted_bytes_ = payload_bytes_;
  bytes_logged_.fetch_add(bytes, std::memory_order_relaxed);
  unflushed_records_ = 0;
  return bytes;
}

device::IoResult Logger::PersistOwed() {
  const std::string name = LogStore::BatchFileName(id_, current_.seq);
  // Each attempt writes, then barriers. After a failure of either, the
  // next attempt rewrites the whole image: part of a block may have
  // landed, and a failed fsync may have dropped appended bytes that a
  // second barrier alone would report durable (FileDevice fails every
  // barrier until the file is rewritten).
  return device::RetryIo(kLogRetryPolicy, io_retries_, [&] {
    device::IoResult w = WriteOwed(name);
    if (!w.ok()) {
      rewrite_ = true;
      return w;
    }
    device::IoResult b = device_->SyncBarrier();
    b.seconds += w.seconds;
    rewrite_ = !b.ok();
    return b;
  });
}

device::IoResult Logger::WriteOwed(const std::string& name) {
  size_t payload = 0;
  if (rewrite_ && !current_.records.empty()) {
    std::vector<uint8_t> image =
        LogStore::SerializeBatch(scheme_, current_, &payload);
    const size_t size = image.size();
    device::IoResult r = device_->WriteFile(name, std::move(image));
    if (r.ok()) {
      file_bytes_ = size;
      payload_bytes_ = payload;
    }
    return r;
  }
  if (unflushed_records_ == 0) return device::IoResult::Ok(0.0);
  const size_t first = current_.records.size() - unflushed_records_;
  const std::vector<uint8_t> block = LogStore::SerializeBlock(
      scheme_, id_, current_.seq, /*file_header=*/file_bytes_ == 0,
      current_.records.data() + first, unflushed_records_, &payload);
  device::IoResult r = device_->AppendFile(name, block);
  if (r.ok()) {
    file_bytes_ += block.size();
    payload_bytes_ += payload;
  }
  return r;
}

void Logger::CloseBatch() {
  // Called with mu_ held, with nothing owed.
  if (!current_.records.empty()) batch_seq_++;
  OpenBatch();
}

void Logger::OpenBatch() {
  current_ = LogBatch{};
  current_.logger_id = id_;
  current_.seq = batch_seq_;
  epochs_in_batch_ = 0;
  file_bytes_ = 0;
  payload_bytes_ = 0;
  counted_bytes_ = 0;
  rewrite_ = false;
}

void Logger::AlignOpenSeq(uint64_t seq) {
  std::lock_guard<std::mutex> g(mu_);
  if (!current_.records.empty() || current_.seq >= seq) return;
  batch_seq_ = seq;
  current_.seq = seq;
}

void Logger::Reset(uint64_t seq) {
  std::lock_guard<std::mutex> g(mu_);
  unflushed_records_ = 0;
  batch_seq_ = seq;
  OpenBatch();
}

Status Logger::Finalize() {
  std::lock_guard<std::mutex> g(mu_);
  // Records drained after the last successful flush (a failed flush, or
  // a crash boundary with stragglers) keep their stamps; recovery's
  // pepoch cut decides whether they replay.
  if (unflushed_records_ > 0) {
    device::IoResult r = PersistOwed();
    if (!r.ok()) return r.status;
    MarkPersisted();
  }
  CloseBatch();
  return Status::Ok();
}

LogManager::LogManager(LogScheme scheme,
                       std::vector<device::StorageDevice*> devices,
                       uint32_t num_loggers, uint32_t epochs_per_batch,
                       txn::EpochManager* epochs,
                       txn::TransactionManager* txns, uint32_t num_shards)
    : scheme_(scheme),
      devices_(std::move(devices)),
      epochs_(epochs),
      txns_(txns),
      num_shards_(num_shards) {
  PACMAN_CHECK(!devices_.empty());
  PACMAN_CHECK_MSG(num_shards_ >= 1, "LogManager num_shards must be >= 1");
  // Sharded routing keys the durable streams by shard: logger s must BE
  // shard s's log, or per-shard recovery would read a mixed stream.
  PACMAN_CHECK_MSG(num_shards_ == 1 || num_loggers == num_shards_,
                   "sharded logging requires num_loggers == num_shards");
  const uint64_t start_seq = NextSeqOnDevices();
  for (uint32_t i = 0; i < num_loggers; ++i) {
    loggers_.push_back(std::make_unique<Logger>(
        i, scheme, devices_[i % devices_.size()], epochs_per_batch, start_seq,
        &io_retries_));
  }
}

uint64_t LogManager::NextSeqOnDevices() const {
  // One common sequence number past the largest batch any process
  // persisted, on any device and from any logger. Global reload order is
  // (seq, logger) and the loggers flush in lockstep, so the streams must
  // stay seq-aligned: resuming per-logger could slot one logger's new
  // batches into a smaller seq than another's old ones and interleave
  // replay out of commit order. Fresh devices yield 0.
  uint64_t next = 0;
  for (const BatchFile& f : LogStore::ListBatchFiles(devices_)) {
    next = std::max(next, f.seq + 1);
  }
  return next;
}

void LogManager::ResumeAfterRecovery() {
  if (loggers_.empty()) return;
  std::lock_guard<std::mutex> flush_guard(flush_mu_);
  const uint64_t seq = NextSeqOnDevices();
  for (auto& logger : loggers_) logger->Reset(seq);
}

LogManager::~LogManager() {
  for (std::atomic<WorkerBuffer*>& chunk : buffer_chunks_) {
    delete[] chunk.load(std::memory_order_relaxed);
  }
}

LogRecord MakeRecord(LogScheme scheme, const txn::Transaction& txn,
                     const txn::CommitInfo& info) {
  LogRecord r;
  r.commit_ts = info.commit_ts;
  r.epoch = info.epoch;
  const bool tuple_level = scheme == LogScheme::kPhysical ||
                           scheme == LogScheme::kLogical ||
                           (scheme == LogScheme::kCommand && txn.is_adhoc());
  if (scheme == LogScheme::kCommand && !txn.is_adhoc()) {
    r.proc = txn.proc_id();
    PACMAN_CHECK(txn.params() != nullptr);
    r.params = *txn.params();
  }
  if (tuple_level) {
    // Each written row is encoded once, here, into bytes the record owns;
    // the flush copies them into its block as they are.
    r.proc = kAdhocProcId;
    const std::vector<txn::WriteEntry>& writes = txn.write_set();
    size_t bytes = 0;
    for (const txn::WriteEntry& w : writes) bytes += CompactRowBytes(w.row);
    r.images.Reserve(bytes);
    r.writes.reserve(writes.size());
    for (const txn::WriteEntry& w : writes) {
      r.AddImage(w.table->id(), w.key, w.row, w.deleted);
    }
  }
  return r;
}

void LogManager::OnCommit(const txn::Transaction& txn,
                          const txn::CommitInfo& info) {
  // Read-only transactions generate no log records (paper, Appendix C).
  if (txn.write_set().empty()) return;
  const WorkerId worker = txn.worker_id();
  WorkerBuffer* buf =
      worker != kInvalidWorkerId ? worker_buffer(worker) : nullptr;
  // Per-worker staging (§4.5): no shared-logger contention on the commit
  // path; DrainWorkerBuffers re-sorts each cut by commit TID. Commits
  // without a worker slot stage into the shared fallback buffer — also
  // drained, never appended straight to a logger, so the quiesced-cut
  // guarantee covers every record (see fallback_buffer_).
  if (buf == nullptr) buf = &fallback_buffer_;
  if (num_shards_ > 1) {
    StageSharded(txn, info, buf);
    return;
  }
  LogRecord record = MakeRecord(scheme_, txn, info);
  SpinLatchGuard g(buf->latch);
  buf->records.push_back(std::move(record));
}

void LogManager::StageSharded(const txn::Transaction& txn,
                              const txn::CommitInfo& info,
                              WorkerBuffer* buf) {
  // Classify against the transaction's *actual* access set (the dynamic
  // analogue of the compiler's static summary, so ad-hoc transactions
  // classify too). Single-shard means the record routes whole to its home
  // shard's logger; everything else splits below.
  const std::vector<txn::WriteEntry>& writes = txn.write_set();
  const uint32_t home = storage::ShardOfKey(writes[0].key, num_shards_);
  // Statically single-shard procedures (one key expression, so one key
  // value per execution) need no scan at all — `home` covers every
  // access by construction.
  bool single = true;
  if (!txn.static_single_shard()) {
    for (const txn::WriteEntry& w : writes) {
      if (storage::ShardOfKey(w.key, num_shards_) != home) {
        single = false;
        break;
      }
    }
  }
  const bool cl_native = scheme_ == LogScheme::kCommand && !txn.is_adhoc();
  if (single && cl_native && !txn.static_single_shard()) {
    // A native command record is replayed by re-executing the procedure,
    // reads included, so shard s may replay it independently only when
    // the reads live in s too. Statically single-shard procedures proved
    // this at compile time (one key expression → one key value); for the
    // rest, scan the read set.
    for (const txn::ReadEntry& r : txn.read_set()) {
      if (storage::ShardOfKey(r.key, num_shards_) != home) {
        single = false;
        break;
      }
    }
  }
  if (single) {
    LogRecord record = MakeRecord(scheme_, txn, info);
    record.home_shard = home;
    SpinLatchGuard g(buf->latch);
    buf->single_commits++;
    buf->records.push_back(std::move(record));
    return;
  }
  // Cross-shard: split the write set into one tuple-level sub-record per
  // touched shard, all sharing this commit's TID and epoch. Each shard's
  // durable stream then stays self-contained, and replay stays correct
  // because the sub-records touch disjoint key sets — the engine's
  // ordering contract is per-key commit-TID order, not a global sequence
  // (recovery/recovery.h), and per key the one sub-record carrying it
  // preserves program order. Under CL this is the same downgrade ad-hoc
  // transactions already take (§4.5 row-level logical images).
  // Touched-shard dedup by linear scan: a write set holds a handful of
  // keys, so scanning the open sub-records beats allocating a
  // num_shards-wide map on every cross-shard commit.
  std::vector<LogRecord> subs;
  subs.reserve(std::min<size_t>(writes.size(), num_shards_));
  for (const txn::WriteEntry& w : writes) {
    const uint32_t s = storage::ShardOfKey(w.key, num_shards_);
    LogRecord* sub = nullptr;
    for (LogRecord& open : subs) {
      if (open.home_shard == s) {
        sub = &open;
        break;
      }
    }
    if (sub == nullptr) {
      LogRecord fresh;
      fresh.commit_ts = info.commit_ts;
      fresh.epoch = info.epoch;
      fresh.proc = kAdhocProcId;
      fresh.home_shard = s;
      subs.push_back(std::move(fresh));
      sub = &subs.back();
    }
    sub->AddImage(w.table->id(), w.key, w.row, w.deleted);
  }
  SpinLatchGuard g(buf->latch);
  buf->cross_commits++;
  for (LogRecord& sub : subs) buf->records.push_back(std::move(sub));
}

uint64_t LogManager::single_shard_commits() {
  uint64_t n = 0;
  const uint32_t count = num_worker_buffers_.load(std::memory_order_acquire);
  for (WorkerId w = 0; w < count; ++w) {
    WorkerBuffer* buf = worker_buffer(w);
    SpinLatchGuard g(buf->latch);
    n += buf->single_commits;
  }
  SpinLatchGuard g(fallback_buffer_.latch);
  return n + fallback_buffer_.single_commits;
}

uint64_t LogManager::cross_shard_commits() {
  uint64_t n = 0;
  const uint32_t count = num_worker_buffers_.load(std::memory_order_acquire);
  for (WorkerId w = 0; w < count; ++w) {
    WorkerBuffer* buf = worker_buffer(w);
    SpinLatchGuard g(buf->latch);
    n += buf->cross_commits;
  }
  SpinLatchGuard g(fallback_buffer_.latch);
  return n + fallback_buffer_.cross_commits;
}

LogManager::WorkerBuffer* LogManager::worker_buffer(WorkerId w) {
  if (w >= num_worker_buffers_.load(std::memory_order_acquire)) {
    return nullptr;
  }
  WorkerBuffer* chunk =
      buffer_chunks_[w / kWorkerBufferChunkSize].load(
          std::memory_order_acquire);
  return chunk == nullptr ? nullptr : &chunk[w % kWorkerBufferChunkSize];
}

void LogManager::EnsureWorkerBuffers(uint32_t num_workers) {
  PACMAN_CHECK_MSG(
      num_workers <= kWorkerBufferChunkSize * kMaxWorkerBufferChunks,
      "too many worker log-buffer slots (sessions + executor workers)");
  std::lock_guard<std::mutex> g(grow_mu_);
  if (num_workers <= num_worker_buffers_.load(std::memory_order_relaxed)) {
    return;
  }
  const uint32_t chunks_needed =
      (num_workers + kWorkerBufferChunkSize - 1) / kWorkerBufferChunkSize;
  for (uint32_t c = 0; c < chunks_needed; ++c) {
    if (buffer_chunks_[c].load(std::memory_order_relaxed) == nullptr) {
      buffer_chunks_[c].store(new WorkerBuffer[kWorkerBufferChunkSize],
                              std::memory_order_release);
    }
  }
  // Publish the count last: a committer that sees it also sees the chunks.
  num_worker_buffers_.store(num_workers, std::memory_order_release);
}

void LogManager::RouteToLogger(LogRecord record) {
  // Sharded: the record's home shard owns it — logger s is shard s's
  // durable stream, which is what lets recovery run one pipeline per
  // shard with no cross-shard merge. Unsharded: spread by commit TID.
  const size_t i = num_shards_ > 1
                       ? record.home_shard % loggers_.size()
                       : record.commit_ts % loggers_.size();
  Logger& logger = *loggers_[i];
  logger.Append(std::move(record));
}

void LogManager::DrainWorkerBuffers() {
  // Runs under the commit quiesce barrier (FlushAll/FinalizeAll): no
  // commit is between its TID draw and its install, so the buffers hold
  // exactly the records of every TID drawn since the previous drain — the
  // cut is an exact TID interval, and batch order in the durable stream
  // is consistent with commit-TID order for every record. That is what
  // lets recovery replay batches in sequence without ever inverting a
  // pair of transactions, including r-w anti-dependent pairs whose reader
  // stages long after the writer installs (per-slot staging alone would
  // let such a pair straddle a cut in the wrong order, which command
  // replay cannot detect). The buffer latches still serialize against
  // any direct Logger::Append users; committers hold at most one buffer
  // latch, so there is no ordering cycle.
  std::vector<WorkerBuffer*> buffers;
  const uint32_t n = num_worker_buffers_.load(std::memory_order_acquire);
  buffers.reserve(n + 1);
  for (WorkerId w = 0; w < n; ++w) buffers.push_back(worker_buffer(w));
  buffers.push_back(&fallback_buffer_);
  std::vector<LogRecord> staged;
  for (WorkerBuffer* buf : buffers) buf->latch.Lock();
  for (WorkerBuffer* buf : buffers) {
    staged.insert(staged.end(),
                  std::make_move_iterator(buf->records.begin()),
                  std::make_move_iterator(buf->records.end()));
    buf->records.clear();
  }
  for (WorkerBuffer* buf : buffers) buf->latch.Unlock();
  // Merge by commit TID before handing the records to the loggers, so the
  // records *within* this cut land in batch files ascending in commit_ts.
  // Across cuts the stream is only per-key / per-conflict ordered (see
  // recovery.h), which is exactly what replay requires.
  std::sort(staged.begin(), staged.end(),
            [](const LogRecord& a, const LogRecord& b) {
              return a.commit_ts < b.commit_ts;
            });
  for (LogRecord& r : staged) RouteToLogger(std::move(r));
}

FlushCost LogManager::FlushAll(Epoch epoch) {
  std::lock_guard<std::mutex> flush_guard(flush_mu_);
  // The drain runs at a commit quiesce point, so the cut is an exact TID
  // interval (see DrainWorkerBuffers). A commit that read epoch `epoch`
  // but enters the commit section only after the barrier lands in the
  // next cut; Logger::FlushEpoch re-stamps records with the epoch of the
  // flush that actually persists them, so that straggler's on-device
  // epoch will be `epoch + 1` — beyond the pepoch watermark this flush
  // publishes — and a recovery that runs before the next flush completes
  // excludes it, landing exactly on this cut. (What a kill in that window
  // can still lose is the straggler itself; results are released at
  // commit time rather than fenced on pepoch — see README.)
  DrainUnderBarrier();
  FlushCost max_cost;
  for (auto& logger : loggers_) {
    FlushCost c = logger->FlushEpoch(epoch);
    max_cost.bytes += c.bytes;
    if (c.seconds > max_cost.seconds) max_cost.seconds = c.seconds;
    if (!c.status.ok()) {
      // This logger's records are not durable: do not mark its epoch
      // persisted, so pepoch (the min across loggers) cannot advance
      // over the hole, and report the failure to the caller.
      io_failures_.fetch_add(1, std::memory_order_relaxed);
      if (max_cost.status.ok()) {
        max_cost.status =
            Status(c.status.code(), "logger " + std::to_string(logger->id()) +
                                        " flush failed: " + c.status.message());
      }
      continue;
    }
    epochs_->SetLoggerPersisted(logger->id(), epoch);
  }
  if (num_shards_ == 1) {
    // Recovery merges every logger's file of one seq into one batch, so
    // the unsharded streams must close their batches in lockstep. A
    // logger that received no record in a batch the others just closed
    // kept its seq; left there, its next records would join that closed
    // seq's batch, ahead of older records of the same keys in the next
    // batch, and replay would install them out of commit order. (Each
    // shard's stream recovers on its own, so sharded loggers need not
    // align.)
    uint64_t open = 0;
    for (auto& logger : loggers_) open = std::max(open, logger->open_seq());
    for (auto& logger : loggers_) logger->AlignOpenSeq(open);
  }
  // Persist the pepoch watermark (Appendix A). A failed watermark write
  // means the just-flushed epoch stamps are not provably durable: group
  // commit must not be acknowledged, exactly as if a logger had failed.
  // Skipped when a logger already failed — the watermark did not move.
  if (!loggers_.empty() && max_cost.status.ok()) {
    Serializer s;
    s.PutU64(epochs_->PersistentEpoch());
    const std::vector<uint8_t> bytes = s.Release();
    device::IoResult w = device::RetryIo(kLogRetryPolicy, &io_retries_, [&] {
      return devices_[0]->WriteFile(LogStore::PepochFileName(), bytes);
    });
    if (!w.ok()) {
      io_failures_.fetch_add(1, std::memory_order_relaxed);
      max_cost.status =
          Status(w.status.code(),
                 "pepoch watermark write failed: " + w.status.message());
    }
  }
  return max_cost;
}

void LogManager::DrainUnderBarrier() {
  if (txns_ != nullptr) {
    txns_->QuiesceCommits([this] { DrainWorkerBuffers(); });
  } else {
    DrainWorkerBuffers();
  }
}

Status LogManager::FinalizeAll() {
  std::lock_guard<std::mutex> flush_guard(flush_mu_);
  DrainUnderBarrier();
  Status first;
  for (auto& logger : loggers_) {
    Status s = logger->Finalize();
    if (!s.ok() && first.ok()) first = std::move(s);
  }
  if (!first.ok()) io_failures_.fetch_add(1, std::memory_order_relaxed);
  return first;
}

uint64_t LogManager::total_bytes() const {
  uint64_t total = 0;
  for (const auto& logger : loggers_) total += logger->bytes_logged();
  return total;
}

uint64_t LogManager::MinOpenSeq() {
  if (loggers_.empty()) return 0;
  uint64_t min_seq = kMaxTimestamp;
  for (auto& logger : loggers_) {
    min_seq = std::min(min_seq, logger->open_seq());
  }
  return min_seq;
}

}  // namespace pacman::logging
