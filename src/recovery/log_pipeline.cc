#include "recovery/log_pipeline.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"

namespace pacman::recovery {

LogLoadPlan PlanLogLoad(const std::vector<device::StorageDevice*>& devices,
                        uint32_t logger_filter) {
  LogLoadPlan plan;
  for (logging::BatchFile& f : logging::LogStore::ListBatchFiles(devices)) {
    if (logger_filter != kNoLoggerFilter && f.logger != logger_filter) {
      continue;
    }
    BatchFileInfo info;
    info.bytes = devices[f.device]->FileSize(f.name);
    info.file = std::move(f);
    if (plan.seqs.empty() || plan.seqs.back() != info.file.seq) {
      plan.seqs.push_back(info.file.seq);
      plan.seq_files.emplace_back();
    }
    info.seq_index = plan.seqs.size() - 1;
    plan.seq_files.back().push_back(plan.files.size());
    plan.files.push_back(std::move(info));
  }
  return plan;
}

PipelinedLogLoader::PipelinedLogLoader(
    logging::LogScheme scheme, std::vector<device::StorageDevice*> devices,
    exec::ThreadPool* pool, LogPipelineOptions options)
    : scheme_(scheme),
      devices_(std::move(devices)),
      pool_(pool),
      options_(options),
      windowed_(options.release_batches) {
  PACMAN_CHECK(pool_ != nullptr);
}

PipelinedLogLoader::~PipelinedLogLoader() {
  // Every submitted job captures `this`; hold destruction until the last
  // one retired (WaitAll may never have been called on a failure path).
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return jobs_outstanding_ == 0; });
}

void PipelinedLogLoader::Start() {
  plan_ = PlanLogLoad(devices_, options_.logger_filter);
  fragments_.resize(plan_.files.size());
  batches_.resize(plan_.seqs.size());
  pending_.resize(plan_.seqs.size());
  released_.assign(plan_.seqs.size(), 0);
  for (size_t k = 0; k < plan_.seqs.size(); ++k) {
    // Skeletons: the metadata replay builders need at graph-build time,
    // before any file contents exist (device = logger % num_ssds; size
    // from the listing).
    batches_[k].seq = plan_.seqs[k];
    pending_[k] = plan_.seq_files[k].size();
    batches_[k].files.reserve(plan_.seq_files[k].size());
    for (size_t fi : plan_.seq_files[k]) {
      batches_[k].files.emplace_back(
          plan_.files[fi].file.logger % options_.num_ssds,
          plan_.files[fi].bytes);
    }
  }

  // One sequential reader per device stream, handed exactly its file
  // indices (in global reload order, which per device is its own read
  // order).
  streams_.resize(devices_.size());
  for (size_t i = 0; i < plan_.files.size(); ++i) {
    streams_[plan_.files[i].file.device].files.push_back(i);
  }
  std::unique_lock<std::mutex> lk(mu_);
  for (uint32_t d = 0; d < streams_.size(); ++d) {
    if (streams_[d].files.empty()) continue;
    jobs_outstanding_++;
    pool_->Submit([this, d] { ReadDeviceStream(d); });
  }
}

void PipelinedLogLoader::ReadDeviceStream(uint32_t device_index) {
  // plan_ is immutable after Start; only this reader advances this
  // device's stream, and only while it is not parked.
  DeviceStream& stream = streams_[device_index];
  std::unique_lock<std::mutex> lk(mu_);
  while (!failed_ && stream.next < stream.files.size()) {
    const size_t fi = stream.files[stream.next];
    if (!InWindowLocked(plan_.files[fi].seq_index)) {
      stream.parked = true;  // Release() or WaitAll() resubmits it.
      break;
    }
    lk.unlock();
    // Shared read: an in-memory backend lends its stored buffer with no
    // copy; a real file backend reads into a fresh one. Either way the
    // handle flows into LogBatch::backing, so the log bytes exist once.
    const logging::BatchFile& info = plan_.files[fi].file;
    std::shared_ptr<const std::vector<uint8_t>> buf;
    Status s = devices_[device_index]->ReadFileShared(info.name, &buf);
    lk.lock();
    if (!s.ok()) {
      OnFragmentParsedLocked(
          lk, fi,
          Status::Corruption("batch file " + info.name + ": read failed: " +
                             s.message()));
      break;
    }
    stream.next++;
    // Deserialization fans out: any free worker parses this file while
    // the reader moves on to the next one on this device.
    jobs_outstanding_++;
    pool_->Submit([this, fi, buf = std::move(buf)]() mutable {
      ParseFragment(fi, std::move(buf));
    });
  }
  jobs_outstanding_--;
  cv_.notify_all();
}

void PipelinedLogLoader::ParseFragment(
    size_t file_index, std::shared_ptr<const std::vector<uint8_t>> bytes) {
  logging::LogBatch batch;
  // Zero-copy: images and string parameters view LogBatch::backing,
  // which holds the only handle on the file bytes.
  Status s = logging::LogStore::ParseBatchFile(scheme_,
                                               plan_.files[file_index].file,
                                               std::move(bytes),
                                               /*borrow=*/true, &batch);
  Epoch max_epoch = 0;
  uint64_t zombies = 0;
  const size_t raw_records = batch.records.size();
  const bool torn = batch.torn_tail;
  if (s.ok()) {
    for (const logging::LogRecord& r : batch.records) {
      max_epoch = std::max(max_epoch, r.epoch);
      if (r.epoch > options_.pepoch) zombies++;
    }
    // No replay reads a record the checkpoint holds or one past the
    // pepoch watermark: drop them now rather than hold them until the
    // batch is released, and the file bytes with them if none remain.
    // (A v4 block header carries the block's TID interval but no max
    // epoch, so the counts above need every record parsed.)
    const size_t dropped = std::erase_if(
        batch.records, [this](const logging::LogRecord& r) {
          return r.commit_ts <= options_.checkpoint_ts ||
                 r.epoch > options_.pepoch;
        });
    if (dropped > 0) batch.records.shrink_to_fit();
    if (batch.records.empty()) batch.backing.reset();
    // Distinct slot per job; publication happens-before any reader of
    // the slot via pending_/mu_ below.
    fragments_[file_index] = std::move(batch);
  }
  std::unique_lock<std::mutex> lk(mu_);
  if (s.ok()) {
    total_records_ += raw_records;
    max_record_epoch_ = std::max(max_record_epoch_, max_epoch);
    zombie_records_ += zombies;
    if (torn) torn_files_++;
  }
  OnFragmentParsedLocked(lk, file_index, s);
  jobs_outstanding_--;
  cv_.notify_all();
}

bool PipelinedLogLoader::InWindowLocked(size_t seq_index) const {
  return !windowed_ || seq_index < release_floor_ + kReadAheadBatches;
}

void PipelinedLogLoader::AdvanceWindowLocked() {
  while (release_floor_ < released_.size() && released_[release_floor_]) {
    release_floor_++;
  }
  if (failed_) return;
  for (uint32_t d = 0; d < streams_.size(); ++d) {
    DeviceStream& stream = streams_[d];
    if (!stream.parked ||
        !InWindowLocked(plan_.files[stream.files[stream.next]].seq_index)) {
      continue;
    }
    stream.parked = false;
    jobs_outstanding_++;
    pool_->Submit([this, d] { ReadDeviceStream(d); });
  }
}

void PipelinedLogLoader::OnFragmentParsedLocked(
    std::unique_lock<std::mutex>& lk, size_t file_index, Status s) {
  if (!s.ok()) {
    if (error_.ok()) {
      error_ = s;
      error_message_ = s.message();
    }
    failed_ = true;
    cv_.notify_all();
    return;
  }
  const size_t si = plan_.files[file_index].seq_index;
  PACMAN_DCHECK(pending_[si] > 0);
  if (--pending_[si] == 0) DrainReadySeqs(lk);
}

void PipelinedLogLoader::DrainReadySeqs(std::unique_lock<std::mutex>& lk) {
  if (merger_active_) return;  // The active merger re-checks before exiting.
  merger_active_ = true;
  while (!failed_ && merge_next_ < plan_.seqs.size() &&
         pending_[merge_next_] == 0) {
    const size_t k = merge_next_;
    lk.unlock();
    // Outside the lock: the fragments of seq k are fully parsed (their
    // publication happened-before the pending_ decrement we observed),
    // and max_commit_ts_ and the verifier are only ever touched by the
    // single active merger.
    std::vector<const logging::LogBatch*> frags;
    frags.reserve(plan_.seq_files[k].size());
    for (size_t fi : plan_.seq_files[k]) frags.push_back(&fragments_[fi]);
    GlobalBatch merged;
    MergeBatchGroup(frags.data(), frags.size(), &merged.records);
    // Over the *replayable* records: the TID counter resumes past what
    // was replayed.
    if (!merged.records.empty()) {
      max_commit_ts_ =
          std::max(max_commit_ts_, merged.records.back()->commit_ts);
    }
    Status vs = verifier_.Check(merged);
    lk.lock();
    if (!vs.ok()) {
      if (error_.ok()) {
        error_ = vs;
        error_message_ = vs.message();
      }
      failed_ = true;
      break;
    }
    batches_[k].records = std::move(merged.records);
    // A batch with nothing to replay holds no memory: it needs no
    // release before the readers move past it.
    if (batches_[k].records.empty()) released_[k] = 1;
    merge_next_ = k + 1;
    cv_.notify_all();
  }
  AdvanceWindowLocked();
  merger_active_ = false;
  cv_.notify_all();
}

const GlobalBatch* PipelinedLogLoader::WaitBatch(size_t index) {
  PACMAN_CHECK(index < batches_.size());
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return failed_ || merge_next_ > index; });
  return merge_next_ > index ? &batches_[index] : nullptr;
}

void PipelinedLogLoader::Release(size_t index) {
  PACMAN_CHECK(index < batches_.size());
  {
    std::lock_guard<std::mutex> g(mu_);
    PACMAN_CHECK_MSG(merge_next_ > index, "released an unpublished batch");
  }
  // Outside the lock: the pipeline no longer touches a published batch's
  // fragments and records, and its consumer is done with them.
  batches_[index].records = {};
  for (size_t fi : plan_.seq_files[index]) fragments_[fi] = {};
  std::lock_guard<std::mutex> g(mu_);
  released_[index] = 1;
  AdvanceWindowLocked();
}

Status PipelinedLogLoader::WaitAll() {
  std::unique_lock<std::mutex> lk(mu_);
  windowed_ = false;
  AdvanceWindowLocked();
  cv_.wait(lk, [&] {
    return (failed_ || merge_next_ == batches_.size()) &&
           jobs_outstanding_ == 0 && !merger_active_;
  });
  return error_;
}

void AddBatchGates(PipelinedLogLoader* loader, sim::TaskGraph* graph,
                   sim::GroupId group, BatchGates* gates) {
  gates->release = [loader](size_t k) { loader->Release(k); };
  gates->tasks.reserve(loader->num_batches());
  sim::TaskId prev = sim::kInvalidTask;
  for (size_t k = 0; k < loader->num_batches(); ++k) {
    sim::TaskId gate =
        graph->AddTask(group, loader->batches()[k].seq, [loader, k] {
          const GlobalBatch* b = loader->WaitBatch(k);
          PACMAN_CHECK_MSG(b != nullptr, loader->error_message());
          return sim::Work();
        });
    if (prev != sim::kInvalidTask) graph->AddEdge(prev, gate);
    prev = gate;
    gates->tasks.push_back(gate);
  }
}

CheckpointPrefetch::CheckpointPrefetch(
    const logging::CheckpointMeta& meta,
    const logging::Checkpointer* checkpointer, exec::ThreadPool* pool)
    : meta_(meta) {
  const size_t n =
      static_cast<size_t>(meta.num_ssds) * meta.files_per_ssd;
  stripes_.resize(n);
  ready_.assign(n, 0);
  std::lock_guard<std::mutex> g(mu_);
  for (uint32_t d = 0; d < meta.num_ssds; ++d) {
    for (uint32_t f = 0; f < meta.files_per_ssd; ++f) {
      jobs_outstanding_++;
      pool->Submit([this, checkpointer, d, f] {
        auto stripe = std::make_unique<logging::CheckpointStripe>();
        Status s = checkpointer->ReadStripeBytes(meta_, d, f, stripe.get());
        PACMAN_CHECK_MSG(
            s.ok(), ("checkpoint stripe (" + std::to_string(d) + ", " +
                     std::to_string(f) + ") read failed: " + s.message())
                        .c_str());
        const size_t idx =
            static_cast<size_t>(d) * meta_.files_per_ssd + f;
        std::lock_guard<std::mutex> g2(mu_);
        stripes_[idx] = std::move(stripe);
        ready_[idx] = 1;
        jobs_outstanding_--;
        cv_.notify_all();
      });
    }
  }
}

CheckpointPrefetch::~CheckpointPrefetch() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return jobs_outstanding_ == 0; });
}

logging::CheckpointStripe CheckpointPrefetch::TakeStripe(
    uint32_t ssd_index, uint32_t file_index) {
  const size_t idx =
      static_cast<size_t>(ssd_index) * meta_.files_per_ssd + file_index;
  PACMAN_CHECK(idx < stripes_.size());
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return ready_[idx] != 0; });
  logging::CheckpointStripe out = std::move(*stripes_[idx]);
  stripes_[idx].reset();
  return out;
}

}  // namespace pacman::recovery
