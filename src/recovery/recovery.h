// Copyright (c) 2026 The PACMAN reproduction authors.
// Common types of the recovery subsystem (paper §6.2 scheme taxonomy).
#ifndef PACMAN_RECOVERY_RECOVERY_H_
#define PACMAN_RECOVERY_RECOVERY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/global_graph.h"
#include "common/types.h"
#include "device/storage_device.h"
#include "logging/log_store.h"
#include "proc/registry.h"
#include "recovery/cost_model.h"
#include "sim/task_graph.h"
#include "storage/catalog.h"

namespace pacman::recovery {

// The five evaluated recovery schemes (§6.2).
enum class Scheme {
  kPlr,   // Physical log recovery (latched, last-writer-wins).
  kLlr,   // Logical log recovery, SiloR-style (latched).
  kLlrP,  // Parallel logical recovery adapted from PACMAN (latch-free).
  kClr,   // Serial command log recovery.
  kClrP,  // PACMAN.
};

const char* SchemeName(Scheme s);

// CLR-P execution modes isolated for §6.3's ablations.
enum class PacmanMode {
  kStaticOnly,    // Coarse-grained block parallelism only (Figs. 18, 19).
  kSynchronous,   // + intra-batch dynamic analysis, batch barrier (Fig. 19).
  kPipelined,     // + inter-batch pipelining (full PACMAN).
};

struct RecoveryOptions {
  uint32_t num_threads = 1;
  CostModel costs;
  PacmanMode mode = PacmanMode::kPipelined;
  // Replay only records with commit_ts > this (the checkpoint snapshot).
  Timestamp checkpoint_ts = 0;
  // Build only the reload stage (io + deserialize), for the "pure file
  // reloading" measurements of Figs. 13a/14a.
  bool reload_only = false;
  // Model latch acquisition costs (true for PLR/LLR; Fig. 15 disables).
  bool use_latches = true;
  // CLR-P only: replay with an alternative statically-derived graph
  // (Fig. 18 uses the transaction-chopping decomposition).
  const analysis::GlobalDependencyGraph* gdg_override = nullptr;
};

// Virtual-time busy breakdown (Fig. 20 categories).
struct Breakdown {
  double useful_work = 0.0;
  double data_loading = 0.0;
  double param_checking = 0.0;
  double scheduling = 0.0;

  double Total() const {
    return useful_work + data_loading + param_checking + scheduling;
  }
};

struct RecoveryStats {
  double seconds = 0.0;  // Virtual makespan of the phase.
  Breakdown breakdown;
  uint64_t records_replayed = 0;
  uint64_t tuples_restored = 0;
  uint64_t latch_acquisitions = 0;
};

// Thread-safe accumulators shared by the task closures of one recovery run.
class RecoveryCounters {
 public:
  void AddUseful(double s) { useful_.fetch_add(s); }
  void AddLoading(double s) { loading_.fetch_add(s); }
  void AddParamCheck(double s) { param_.fetch_add(s); }
  void AddScheduling(double s) { sched_.fetch_add(s); }
  void AddRecords(uint64_t n) { records_.fetch_add(n); }
  void AddTuples(uint64_t n) { tuples_.fetch_add(n); }
  void AddLatches(uint64_t n) { latches_.fetch_add(n); }

  void FillStats(RecoveryStats* stats) const {
    stats->breakdown.useful_work = useful_.load();
    stats->breakdown.data_loading = loading_.load();
    stats->breakdown.param_checking = param_.load();
    stats->breakdown.scheduling = sched_.load();
    stats->records_replayed = records_.load();
    stats->tuples_restored = tuples_.load();
    stats->latch_acquisitions = latches_.load();
  }

 private:
  std::atomic<double> useful_{0.0};
  std::atomic<double> loading_{0.0};
  std::atomic<double> param_{0.0};
  std::atomic<double> sched_{0.0};
  std::atomic<uint64_t> records_{0};
  std::atomic<uint64_t> tuples_{0};
  std::atomic<uint64_t> latches_{0};
};

// A commit-order run of log records spanning all loggers' batch files with
// the same sequence number — the global unit of replay and pipelining.
//
// What "commit order" means here, precisely: commit TIDs are drawn by a
// parallel Silo-style protocol (txn/transaction_manager.h); there is no
// globally serialized commit section. The flusher drains each cut at a
// commit quiesce barrier, which makes every batch an exact TID interval,
// but replay is written against the weaker contract it actually
// requires:
//  - per key, write images appear in ascending commit TID across the
//    global reload order (within and across epochs) — the invariant
//    PLR/LLR's last-writer-wins installs, LLR-P's in-order partition
//    installs, and PerKeyOrderVerifier below encode;
//  - any two *conflicting* transactions (w-w, w-r, and r-w) have TIDs in
//    their serialization order, so re-executing commands in TID order
//    (CLR serially, CLR-P under its dependency graph) reproduces the
//    pre-crash state exactly.
struct GlobalBatch {
  uint64_t seq = 0;
  std::vector<const logging::LogRecord*> records;  // Ascending commit_ts.
  // Per-device byte counts of the member files (reload cost accounting).
  std::vector<std::pair<uint32_t, size_t>> files;  // (ssd index, bytes).
};

// Merges the per-logger fragments of ONE sequence number (given in
// ascending logger order) into `out`: concatenates their records in
// logger order, drops records with commit_ts <= checkpoint_ts (already
// durable in the checkpoint) or beyond the pepoch watermark (their
// results were never released to clients, Appendix A), then sorts by
// commit timestamp. `num_ssds` maps logger id -> device (id % num_ssds).
void MergeBatchGroup(const logging::LogBatch* const* fragments, size_t n,
                     uint32_t num_ssds, Timestamp checkpoint_ts, Epoch pepoch,
                     GlobalBatch* out);

// Checks the per-key ordering contract on merged replay input: every
// key's write images must carry strictly ascending commit TIDs along the
// global reload order (batch seq, then commit_ts within a batch). This is
// the invariant tuple-level replay installs under, and a violated log
// means the forward-processing commit protocol is broken — recovery
// CHECK-fails it rather than restoring silently wrong state. One hash-map
// pass over the write images; command records without images (pure CL
// entries) have nothing tuple-level to verify.
//
// Feed batches in global reload order (ascending seq): the load pipeline
// verifies each GlobalBatch as it is merged, before replay may consume it.
class PerKeyOrderVerifier {
 public:
  // Pre-sizes the conflict table for the expected number of distinct
  // keys (approximated by total write images; 0 = no reservation).
  void Reserve(size_t expected_keys) { last_cts_.reserve(expected_keys); }
  Status Check(const GlobalBatch& batch);

 private:
  std::unordered_map<uint64_t, Timestamp> last_cts_;
};

// Shared machine-layout convention for recovery task graphs:
//   groups [0, num_ssds)      : one serial core per device;
//   group  num_ssds           : the CPU pool (num_threads cores).
inline sim::GroupId SsdGroup(uint32_t ssd_index) { return ssd_index; }
inline sim::GroupId CpuGroup(uint32_t num_ssds) { return num_ssds; }

// Appends the reload stage of batches[index], the stage every log-replay
// builder starts a batch with: one read task per member file on its
// device's serial core, then one deserialize task on the CPU pool behind
// them and behind the batch's gate (with `batch_gates`, from
// AddBatchGates). Records are parsed by the load pipeline; the stage
// charges their virtual costs as data loading. `on_deserialize`, if set,
// runs inside the deserialize task, once the batch's records exist.
// Returns the deserialize task, which the batch's replay tasks follow.
sim::TaskId AddReloadStage(const std::vector<GlobalBatch>& batches,
                           size_t index,
                           const std::vector<sim::TaskId>* batch_gates,
                           const std::vector<device::StorageDevice*>& ssds,
                           const CostModel& costs, sim::TaskGraph* graph,
                           RecoveryCounters* counters,
                           std::function<void()> on_deserialize = nullptr);

}  // namespace pacman::recovery

#endif  // PACMAN_RECOVERY_RECOVERY_H_
