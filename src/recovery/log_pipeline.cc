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
      options_(options) {
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
  if (scheme_ != logging::LogScheme::kCommand) {
    // Rough distinct-key estimate for the verifier's conflict table: a
    // few dozen bytes per write image on the wire. Command logs carry
    // parameters, not write images (only ad-hoc records have any), so a
    // byte-proportional reserve there would just waste memory.
    size_t total_bytes = 0;
    for (const BatchFileInfo& f : plan_.files) total_bytes += f.bytes;
    verifier_.Reserve(total_bytes / 64);
  }

  // One sequential reader per device stream, handed exactly its file
  // indices (in global reload order, which per device is its own read
  // order).
  std::vector<std::vector<size_t>> per_device(devices_.size());
  for (size_t i = 0; i < plan_.files.size(); ++i) {
    per_device[plan_.files[i].file.device].push_back(i);
  }
  std::unique_lock<std::mutex> lk(mu_);
  for (uint32_t d = 0; d < per_device.size(); ++d) {
    if (per_device[d].empty()) continue;
    jobs_outstanding_++;
    pool_->Submit([this, d, files = std::move(per_device[d])] {
      ReadDeviceStream(d, files);
    });
  }
}

void PipelinedLogLoader::ReadDeviceStream(
    uint32_t device_index, const std::vector<size_t>& file_indices) {
  // plan_ is immutable after Start; only this reader touches this
  // device's files.
  for (size_t fi : file_indices) {
    const logging::BatchFile& info = plan_.files[fi].file;
    {
      std::lock_guard<std::mutex> g(mu_);
      if (failed_) break;
    }
    // Shared read: an in-memory backend lends its stored buffer with no
    // copy; a real file backend reads into a fresh one. Either way the
    // handle flows into LogBatch::backing, so the log bytes exist once.
    std::shared_ptr<const std::vector<uint8_t>> buf;
    Status s = devices_[device_index]->ReadFileShared(info.name, &buf);
    std::unique_lock<std::mutex> lk(mu_);
    if (!s.ok()) {
      OnFragmentParsedLocked(
          lk, fi,
          Status::Corruption("batch file " + info.name + ": read failed: " +
                             s.message()));
      break;
    }
    // Deserialization fans out: any free worker parses this file while
    // the reader moves on to the next one on this device.
    jobs_outstanding_++;
    lk.unlock();
    pool_->Submit([this, fi, buf] {
      logging::LogBatch batch;
      // Zero-copy: string fields view LogBatch::backing.
      Status ds = logging::LogStore::ParseBatchFile(
          scheme_, plan_.files[fi].file, buf, /*borrow=*/true, &batch);
      if (ds.ok()) {
        // Distinct slot per job; publication happens-before any reader
        // of the slot via pending_/mu_ below.
        fragments_[fi] = std::move(batch);
      }
      std::unique_lock<std::mutex> lk2(mu_);
      OnFragmentParsedLocked(lk2, fi, ds);
      jobs_outstanding_--;
      cv_.notify_all();
    });
  }
  std::lock_guard<std::mutex> g(mu_);
  jobs_outstanding_--;
  cv_.notify_all();
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
    // and the merge aggregates are only ever touched by the single
    // active merger.
    std::vector<const logging::LogBatch*> frags;
    frags.reserve(plan_.seq_files[k].size());
    for (size_t fi : plan_.seq_files[k]) frags.push_back(&fragments_[fi]);
    GlobalBatch merged;
    MergeBatchGroup(frags.data(), frags.size(), options_.num_ssds,
                    options_.checkpoint_ts, options_.pepoch, &merged);
    for (const logging::LogBatch* fb : frags) {
      if (fb->torn_tail) torn_files_++;
      for (const logging::LogRecord& r : fb->records) {
        total_records_++;
        max_record_epoch_ = std::max(max_record_epoch_, r.epoch);
        if (r.epoch > options_.pepoch) zombie_records_++;
      }
    }
    // Over the *replayable* records (post checkpoint/pepoch cuts): the TID
    // counter resumes past what was replayed.
    for (const logging::LogRecord* r : merged.records) {
      max_commit_ts_ = std::max(max_commit_ts_, r->commit_ts);
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
    merge_next_ = k + 1;
    cv_.notify_all();
  }
  merger_active_ = false;
  cv_.notify_all();
}

const GlobalBatch* PipelinedLogLoader::WaitBatch(size_t index) {
  PACMAN_CHECK(index < batches_.size());
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return failed_ || merge_next_ > index; });
  return merge_next_ > index ? &batches_[index] : nullptr;
}

Status PipelinedLogLoader::WaitAll() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] {
    return (failed_ || merge_next_ == batches_.size()) &&
           jobs_outstanding_ == 0 && !merger_active_;
  });
  return error_;
}

Status PipelinedLogLoader::status() const {
  std::lock_guard<std::mutex> g(mu_);
  return error_;
}

std::vector<sim::TaskId> AddBatchGates(PipelinedLogLoader* loader,
                                       sim::TaskGraph* graph,
                                       sim::GroupId group) {
  std::vector<sim::TaskId> gates;
  gates.reserve(loader->num_batches());
  sim::TaskId prev = sim::kInvalidTask;
  for (size_t k = 0; k < loader->num_batches(); ++k) {
    sim::TaskId gate =
        graph->AddTask(group, loader->batches()[k].seq, [loader, k] {
          const GlobalBatch* b = loader->WaitBatch(k);
          PACMAN_CHECK_MSG(b != nullptr, loader->error_message());
          return 0.0;
        });
    if (prev != sim::kInvalidTask) graph->AddEdge(prev, gate);
    prev = gate;
    gates.push_back(gate);
  }
  return gates;
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
        Status s = checkpointer->ReadStripe(meta_, d, f, stripe.get());
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
