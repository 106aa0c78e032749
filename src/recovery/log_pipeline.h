// Copyright (c) 2026 The PACMAN reproduction authors.
// The recovery log loader: a pipelined multicore load path (paper
// §6.2.3's recovery-time claim depends on it: reloading must not
// serialize in front of replay). Every recovery, and every tool or test
// that inspects a log, reads it through this one loader.
//
// Reading and deserializing one batch file at a time, then merging
// everything before replay may start, would be a serial prefix that grows
// linearly with log size. This pipeline runs it as three overlapped
// stages on an exec::ThreadPool:
//
//   readers      one job per device, reading that device's batch files in
//                (seq, logger) order — a device is a serial bandwidth
//                resource, so one sequential reader per stream;
//   deserialize  fan-out: each file's bytes are parsed by whatever worker
//                is free, in zero-copy mode (write images are views of
//                their rows, checked in place, and string parameters
//                views of the retained file buffer, LogBatch::backing).
//                The job counts the raw records into the loader's
//                aggregates, then drops those no replay reads (at or
//                below the checkpoint timestamp, beyond the pepoch
//                watermark) and frees the file buffer if none remain;
//   merge        a seq-ordered producer: the worker that completes the
//                last fragment of the next pending sequence number merges
//                that seq's fragments into a GlobalBatch
//                (MergeBatchGroup), runs the incremental per-key
//                commit-order verification, and publishes it.
//
// Batches are published in ascending seq. On the real-thread replay
// backend, per-seq gate tasks (AddBatchGates) block replay of batch k
// only on batch k's publication, so replay of batch k overlaps the load
// and deserialization of batch k+1 — the same per-seq (not global)
// barrier PACMAN's inter-batch pipelining uses for replay itself. The
// batch-sequential TID-order contract (recovery.h) is untouched: merge
// and publication are strictly seq-ordered.
//
// The log streams through a bounded window. A release task behind each
// batch's replay (AddReleaseStage) hands the batch back (Release), which
// frees its records and file buffers, and the readers read no further
// than kReadAheadBatches sequence numbers past the oldest batch not yet
// released (a batch the cuts leave empty holds nothing, and counts as
// released once published). A reader at that limit parks its stream
// rather than block a pool worker (a sharded recovery runs lanes x
// devices readers on one load pool), and a release restarts it. So a
// recovery holds the batches in flight, not the whole log. Only a
// loader whose consumer releases (LogPipelineOptions::release_batches)
// has a window; one that wants the whole batch vector (the simulated
// backend, a log probe) loads the whole log, and WaitAll() lifts any
// window.
#ifndef PACMAN_RECOVERY_LOG_PIPELINE_H_
#define PACMAN_RECOVERY_LOG_PIPELINE_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "device/storage_device.h"
#include "exec/thread_pool.h"
#include "logging/log_store.h"
#include "recovery/recovery.h"
#include "sim/task_graph.h"

namespace pacman::recovery {

// One batch file of the plan, plus its position in the global reload
// order.
struct BatchFileInfo {
  logging::BatchFile file;  // From LogStore::ListBatchFiles.
  size_t seq_index = 0;     // Index into LogLoadPlan::seqs.
  size_t bytes = 0;         // On-device size (listing metadata).
};

// The load plan, built from device listings only (no file contents read):
// every batch file, and the distinct sequence numbers in ascending order.
struct LogLoadPlan {
  std::vector<BatchFileInfo> files;
  std::vector<uint64_t> seqs;
  // Indices into `files` per seq (parallel to `seqs`), ascending logger —
  // the global reload order within the sequence number.
  std::vector<std::vector<size_t>> seq_files;
};

// `logger_filter` == kNoLoggerFilter plans every logger's stream; a
// concrete logger id restricts the plan to that stream — the per-shard
// recovery lanes each plan exactly their own shard's logger (sharded
// engines route shard s's records to logger s, so the streams are
// disjoint and need no cross-shard merge).
inline constexpr uint32_t kNoLoggerFilter = 0xffffffffu;

LogLoadPlan PlanLogLoad(const std::vector<device::StorageDevice*>& devices,
                        uint32_t logger_filter = kNoLoggerFilter);

struct LogPipelineOptions {
  uint32_t num_threads = 1;  // Load pool workers driving this pipeline.
  Timestamp checkpoint_ts = 0;
  Epoch pepoch = kMaxTimestamp;
  uint32_t num_ssds = 1;
  // Restrict this loader to one logger's batch stream (see PlanLogLoad).
  uint32_t logger_filter = kNoLoggerFilter;
  // The consumer releases every batch once it is replayed (Release; the
  // release tasks of a gated replay graph do): the readers then keep to
  // the read-ahead window. Otherwise they read the whole log.
  bool release_batches = false;
};

// Parallel load + streaming merge of all loggers' batch streams.
//
// Lifecycle: construct, Start(), then either WaitAll() (simulated replay
// backend: replay graphs want the full batch vector) or, per batch,
// WaitBatch(k) and Release(k) once it is replayed (real-thread backend:
// per-seq gates and release tasks). `batches()` is valid right after
// Start() as a vector of skeletons — seq and files (the metadata replay
// builders price IO with) are filled in; records appear when each batch
// is published and go again when it is released. With
// LogPipelineOptions::release_batches the readers stop kReadAheadBatches
// past the oldest unreleased batch until it is released, or until
// WaitAll(). The loader must outlive every consumer of the batches:
// records point into the fragment storage it owns.
class PipelinedLogLoader {
 public:
  // How many sequence numbers the readers may load past the oldest
  // batch not yet released.
  static constexpr size_t kReadAheadBatches = 4;

  PipelinedLogLoader(logging::LogScheme scheme,
                     std::vector<device::StorageDevice*> devices,
                     exec::ThreadPool* pool, LogPipelineOptions options);
  ~PipelinedLogLoader();
  PACMAN_DISALLOW_COPY_AND_MOVE(PipelinedLogLoader);

  // Plans from the device listings and submits the reader jobs.
  void Start();

  size_t num_batches() const { return batches_.size(); }
  // Skeletons after Start(); records filled per batch as it is merged.
  // Synchronization: a batch's records may be read only after WaitBatch
  // returned it (or WaitAll returned), which establishes the
  // happens-before edge, and only until it is released.
  const std::vector<GlobalBatch>& batches() const { return batches_; }

  // Blocks until batch `index` (position in ascending-seq order) is
  // merged and verified. Returns nullptr when the pipeline failed before
  // publishing it (see error_message()).
  const GlobalBatch* WaitBatch(size_t index);

  // Hands back published batch `index` once nothing reads its records:
  // frees them and its fragments' file buffers, and lets the readers
  // move on. Batches may be released in any order.
  void Release(size_t index);

  // Lifts the read-ahead window, then blocks until every batch is
  // published (or the pipeline failed) and the pool finished all
  // pipeline jobs. Returns the first error.
  Status WaitAll();

  // The first error's message, in storage that outlives the call (for
  // PACMAN_CHECK_MSG). Meaningful only after a WaitBatch/WaitAll that
  // observed the failure.
  const char* error_message() const { return error_message_.c_str(); }

  // Aggregates over ALL raw records (including ones filtered out by the
  // checkpoint/pepoch cuts). Valid after WaitAll().
  Timestamp max_commit_ts() const { return max_commit_ts_; }
  Epoch max_record_epoch() const { return max_record_epoch_; }
  // Records stamped beyond the pepoch watermark ("zombies", Appendix A).
  uint64_t zombie_records() const { return zombie_records_; }
  uint64_t total_records() const { return total_records_; }
  // Files that ended in a torn tail (a crash mid-append).
  uint64_t torn_files() const { return torn_files_; }

 private:
  // One device's batch files in read order, and how far its reader got.
  struct DeviceStream {
    std::vector<size_t> files;  // Indices into plan_.files.
    size_t next = 0;            // First file not yet read.
    bool parked = false;        // Stopped at the window; no job queued.
  };

  void ReadDeviceStream(uint32_t device_index);
  // Parses file `file_index`, counts it and drops what no replay reads.
  void ParseFragment(size_t file_index,
                     std::shared_ptr<const std::vector<uint8_t>> bytes);
  // Whether the readers may load sequence index `seq_index`. Requires mu_.
  bool InWindowLocked(size_t seq_index) const;
  // Moves release_floor_ past the batches that hold nothing, then
  // resubmits every parked stream whose next file is now in the window.
  // Requires mu_.
  void AdvanceWindowLocked();
  // Records one fragment's parse result. Called with mu_ held via `lk`.
  void OnFragmentParsedLocked(std::unique_lock<std::mutex>& lk,
                              size_t file_index, Status s);
  // Merges and publishes every ready seq starting at merge_next_. Called
  // with `lk` held; temporarily releases it around the merge itself.
  void DrainReadySeqs(std::unique_lock<std::mutex>& lk);

  const logging::LogScheme scheme_;
  const std::vector<device::StorageDevice*> devices_;
  exec::ThreadPool* const pool_;
  const LogPipelineOptions options_;

  LogLoadPlan plan_;
  // Parsed fragments, parallel to plan_.files. Stable storage: the
  // GlobalBatch record pointers point into these.
  std::vector<logging::LogBatch> fragments_;
  std::vector<GlobalBatch> batches_;  // Parallel to plan_.seqs.

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<DeviceStream> streams_;  // Parallel to devices_.
  std::vector<size_t> pending_;  // Unparsed fragments per seq index.
  size_t merge_next_ = 0;        // Next seq index to merge/publish.
  bool merger_active_ = false;
  bool failed_ = false;
  // The read-ahead window (release_batches, until WaitAll lifts it): the
  // readers stop kReadAheadBatches past release_floor_, the oldest batch
  // that may still hold records (not released, and not published empty).
  bool windowed_;
  std::vector<uint8_t> released_;  // Per seq index.
  size_t release_floor_ = 0;
  size_t jobs_outstanding_ = 0;  // Reader + deserialize jobs in flight.
  Status error_;
  std::string error_message_;  // Stable storage for PACMAN_CHECK_MSG.
  PerKeyOrderVerifier verifier_;

  // Aggregates over raw records, summed by the deserialize jobs under
  // mu_.
  Epoch max_record_epoch_ = 0;
  uint64_t zombie_records_ = 0;
  uint64_t total_records_ = 0;
  uint64_t torn_files_ = 0;
  // Over replayable records, owned by the (serialized) merge stage.
  Timestamp max_commit_ts_ = 0;
};

// Adds one zero-cost gate task per global batch to `graph`, chained
// gate(k-1) -> gate(k), whose dispatch blocks until `loader` publishes
// batch k, and sets them in *gates with the loader's Release as the
// release.
// Replay builders edge gate(k) in front of batch k's tasks and a release
// task behind them, so a real-thread replay run starts batch k the moment
// the pipeline merges it while later batches are still loading, and
// frees it once replayed. The chain keeps at most one pool worker blocked
// in a gate at a time; the loader runs on its own pool, so the blocked
// worker cannot starve the load. Aborts loudly if the pipeline failed
// (corrupt batch file).
void AddBatchGates(PipelinedLogLoader* loader, sim::TaskGraph* graph,
                   sim::GroupId group, BatchGates* gates);

}  // namespace pacman::recovery

#endif  // PACMAN_RECOVERY_LOG_PIPELINE_H_
