#include "maintenance/checkpoint_service.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "logging/log_manager.h"
#include "logging/log_store.h"
#include "pacman/database.h"

namespace pacman::maintenance {

namespace {

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

CheckpointService::CheckpointService(Database* db, CheckpointPolicy policy,
                                     exec::ThreadPool* pool,
                                     CheckpointEventHook hook)
    : db_(db), policy_(policy), pool_(pool), hook_(std::move(hook)) {}

CheckpointService::~CheckpointService() { Stop(); }

void CheckpointService::Start() {
  PACMAN_CHECK_MSG(pool_ != nullptr,
                   "CheckpointService::Start needs a thread pool");
  std::lock_guard<std::mutex> g(mu_);
  if (loop_running_) return;
  stop_ = false;
  loop_running_ = true;
  // Re-arm the triggers from "now": the first background checkpoint waits
  // a full interval instead of firing on whatever the last cycle left.
  last_cycle_monotonic_s_ = MonotonicSeconds();
  log_bytes_at_last_cycle_ = db_->log_bytes();
  pool_->Submit([this] { Loop(); });
}

void CheckpointService::Stop() {
  std::unique_lock<std::mutex> l(mu_);
  if (!loop_running_) return;
  stop_ = true;
  cv_.notify_all();
  cv_.wait(l, [this] { return !loop_running_; });
}

bool CheckpointService::running() const {
  std::lock_guard<std::mutex> g(mu_);
  return loop_running_ && !stop_;
}

void CheckpointService::Loop() {
  std::unique_lock<std::mutex> l(mu_);
  while (!stop_) {
    // Wake often enough to notice either trigger: a quarter interval for
    // the timer, a short poll when only the bytes trigger is set.
    const auto quantum =
        policy_.interval_s > 0
            ? std::chrono::milliseconds(std::max<int64_t>(
                  1, static_cast<int64_t>(policy_.interval_s * 250.0)))
            : std::chrono::milliseconds(50);
    cv_.wait_for(l, quantum);
    if (stop_) break;
    if (!ShouldRun()) continue;
    l.unlock();
    RunOnce(nullptr);
    l.lock();
  }
  loop_running_ = false;
  cv_.notify_all();
}

bool CheckpointService::ShouldRun() {
  if (policy_.interval_s > 0 &&
      MonotonicSeconds() - last_cycle_monotonic_s_ >= policy_.interval_s) {
    return true;
  }
  if (policy_.log_bytes > 0 &&
      db_->log_bytes() - log_bytes_at_last_cycle_ >= policy_.log_bytes) {
    return true;
  }
  return false;
}

Status CheckpointService::RunOnce(CheckpointEvent* event) {
  const double t0 = MonotonicSeconds();
  {
    // Re-arm the triggers at cycle *start* so a skipped cycle (crashed /
    // idle) does not spin the loop hot.
    std::lock_guard<std::mutex> g(mu_);
    last_cycle_monotonic_s_ = t0;
    log_bytes_at_last_cycle_ = db_->log_bytes();
  }
  // A degraded (read-only) database skips cycles too: the pepoch
  // watermark cannot advance, so a new checkpoint could not safely
  // truncate anything — and its own writes would likely hit the same
  // failed device.
  if (db_->crashed() || db_->read_only()) return Status::Ok();
  {
    // Idle skip: nothing committed since the last snapshot means a new
    // checkpoint would be content-identical — pure file churn.
    std::lock_guard<std::mutex> g(mu_);
    if (stats_.checkpoints > 0 &&
        db_->txn_manager()->LastCommitted() == last_snapshot_ts_) {
      return Status::Ok();
    }
  }

  logging::CheckpointMeta meta;
  Status s = db_->TryTakeCheckpoint(&meta);
  if (!s.ok()) {
    std::lock_guard<std::mutex> g(mu_);
    ++stats_.checkpoint_failures;
    return s;
  }

  CheckpointEvent ev;
  ev.id = meta.id;
  ev.ts = meta.ts;
  ev.checkpoint_bytes = meta.total_bytes;
  // Truncation strictly after the checkpoint verified durable: a non-ok
  // TakeCheckpoint returned above without deleting anything.
  TruncateLog(meta, &ev);
  RetireCheckpoints(meta, &ev);
  ev.seconds = MonotonicSeconds() - t0;

  {
    std::lock_guard<std::mutex> g(mu_);
    ++stats_.checkpoints;
    stats_.last_checkpoint_id = meta.id;
    stats_.last_checkpoint_ts = meta.ts;
    last_snapshot_ts_ = meta.ts;
    if (ev.batches_deleted > 0) ++stats_.truncations;
    stats_.batches_deleted += ev.batches_deleted;
    stats_.batch_bytes_deleted += ev.batch_bytes_deleted;
    stats_.stripes_deleted += ev.stripes_deleted;
  }
  if (event != nullptr) *event = ev;
  if (hook_) hook_(ev);
  return Status::Ok();
}

void CheckpointService::TruncateLog(const logging::CheckpointMeta& meta,
                                    CheckpointEvent* event) {
  logging::LogManager* lm = db_->log_manager();
  // Batches this process closed report their coverage through the
  // registry; fold the newly covered ones into the map keyed by the
  // (logger, seq) identity their file names carry.
  for (const logging::BatchCoverage& c : lm->TakeTruncatable(meta.ts)) {
    std::lock_guard<std::mutex> g(mu_);
    coverage_[{c.logger_id, c.seq}] = c.max_cts;
  }
  const uint64_t min_open = lm->MinOpenSeq();
  const size_t num_loggers = lm->num_loggers();
  for (const logging::BatchFile& f :
       logging::LogStore::ListBatchFiles(lm->devices())) {
    device::StorageDevice* dev = lm->devices()[f.device];
    // Never touch a live logger's in-progress batch: its file is still
    // being appended to.
    if (f.logger < num_loggers && f.seq >= min_open) continue;
    Timestamp max_cts = 0;
    bool known = false;
    {
      std::lock_guard<std::mutex> g(mu_);
      auto it = coverage_.find({f.logger, f.seq});
      if (it != coverage_.end()) {
        max_cts = it->second;
        known = true;
      }
    }
    if (!known) {
      // Inherited from an earlier process (or closed before this service
      // existed): read the coverage interval from the batch headers, once,
      // and cache it.
      logging::LogBatch b;
      if (!logging::LogStore::ReadBatchCoverage(lm->scheme(), dev, f.name, &b)
               .ok()) {
        continue;  // Unreadable stays put; recovery will judge it.
      }
      max_cts = b.max_cts;
      std::lock_guard<std::mutex> g(mu_);
      coverage_[{f.logger, f.seq}] = max_cts;
    }
    if (max_cts > meta.ts) continue;  // Not yet covered.
    const uint64_t bytes = dev->FileSize(f.name);
    device::IoResult rm = dev->RemoveFile(f.name);
    if (!rm.ok()) {
      // The file is still there (and still covered): keep its coverage
      // entry so the next cycle retries the delete.
      continue;
    }
    {
      std::lock_guard<std::mutex> g(mu_);
      coverage_.erase({f.logger, f.seq});
    }
    event->batches_deleted += 1;
    event->batch_bytes_deleted += bytes;
  }
}

void CheckpointService::RetireCheckpoints(const logging::CheckpointMeta& meta,
                                          CheckpointEvent* event) {
  logging::Checkpointer* cp = db_->checkpointer();
  const std::vector<device::StorageDevice*>& devices = cp->devices();
  // Only `meta` survives; ids above it belong to an in-flight manual
  // checkpoint — hands off, a later cycle retires them once superseded.
  // Metas first: a kill mid-retire leaves orphan stripes (swept on a later
  // cycle), never a surviving meta that names missing stripes.
  for (uint64_t id : cp->ListMetaIds()) {
    if (id >= meta.id) continue;
    device::IoResult rm =
        devices[0]->RemoveFile(logging::Checkpointer::MetaFileName(id));
    // A failed delete just stays for the next cycle (retire is idempotent).
    if (rm.ok()) event->stripes_deleted += 1;
  }
  for (device::StorageDevice* dev : devices) {
    for (const std::string& name : dev->ListFiles("ckpt_")) {
      uint64_t id = 0;
      uint32_t ssd = 0, file = 0;
      if (!logging::Checkpointer::ParseStripeFileName(name, &id, &ssd,
                                                      &file)) {
        continue;  // Meta files and foreign names.
      }
      if (id >= meta.id) continue;
      device::IoResult rm = dev->RemoveFile(name);
      if (rm.ok()) event->stripes_deleted += 1;
    }
  }
}

MaintenanceStats CheckpointService::stats() const {
  std::lock_guard<std::mutex> g(mu_);
  return stats_;
}

}  // namespace pacman::maintenance
