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
  // Build only the reload stage (io + deserialize), for the "pure file
  // reloading" measurements of Figs. 13a/14a.
  bool reload_only = false;
  // CLR-P only: replay with an alternative statically-derived graph
  // (Fig. 18 uses the transaction-chopping decomposition).
  const analysis::GlobalDependencyGraph* gdg_override = nullptr;
};

struct RecoveryStats {
  double seconds = 0.0;  // Virtual makespan of the phase (wall on threads).
  // The phase's work as its tasks counted it, by machine group (SsdGroup,
  // CpuGroup), and that work priced: both backends report the same.
  std::vector<sim::Work> work;
  Breakdown breakdown;
  uint64_t records_replayed = 0;    // work's records,
  uint64_t tuples_restored = 0;     // writes plus tuples installed,
  uint64_t latch_acquisitions = 0;  // and latched writes.
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
// logger order, then sorts them by commit timestamp. The load pipeline
// has already dropped, at parse, the records no replay reads: those at or
// below the checkpoint timestamp and those beyond the pepoch watermark.
void MergeBatchGroup(const logging::LogBatch* const* fragments, size_t n,
                     std::vector<const logging::LogRecord*>* out);

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
  Status Check(const GlobalBatch& batch);

 private:
  // By table id, then key. Grows with the distinct keys written so far.
  std::vector<std::unordered_map<Key, Timestamp>> last_cts_;
};

// Shared machine-layout convention for recovery task graphs:
//   groups [0, num_ssds)      : one serial core per device;
//   group  num_ssds           : the CPU pool (num_threads cores).
inline sim::GroupId SsdGroup(uint32_t ssd_index) { return ssd_index; }
inline sim::GroupId CpuGroup(uint32_t num_ssds) { return num_ssds; }

// Prices stats->work, by group of that layout, into stats->breakdown and
// sums its counters.
void PriceStats(const CostModel& costs, Scheme scheme, uint32_t threads,
                const std::vector<device::StorageDevice*>& ssds,
                RecoveryStats* stats);

// The gates of a streamed replay graph (real-thread backend), from
// AddBatchGates: one gate task per batch, which the batch's reload stage
// waits behind, and the release that hands a replayed batch back to its
// loader (PipelinedLogLoader::Release), which frees the batch's records
// and file buffers and lets the readers load further ahead.
//
// `horizon` is the largest commit TID of the batches released so far, the
// horizon command replay reclaims below (ReplayAccess). CLR and CLR-P
// release a batch only once every batch before it has replayed too: CLR
// chains its serial replay, and CLR-P each block's piece-sets, batch to
// batch. So every transaction at or below the horizon has finished, and
// every piece still running belongs to a later batch, whose TIDs (batches
// are TID intervals) are all above it. Such a piece reads, and may keep
// viewing, the version of a key that the last writer below its own TID
// installed. BuildGlobalGraph puts every slice that touches a written
// table in one block, so every install on that key after the read runs
// later in that block, at a higher TID. The versions above the view are
// therefore all above the horizon, so the view is the version the horizon
// keeps or lies above it, and no install frees it.
//
// A gated graph's tasks point into its BatchGates: it must outlive the
// graph's run.
struct BatchGates {
  std::vector<sim::TaskId> tasks;
  std::function<void(size_t)> release;
  mutable std::atomic<Timestamp> horizon{kInvalidTimestamp};
};

// Appends the reload stage of batches[index], the stage every log-replay
// builder starts a batch with: one read task per member file on its
// device's serial core, then one deserialize task on the CPU pool behind
// them and behind the batch's gate (with `gates`, from AddBatchGates).
// Records are parsed by the load pipeline; the stage counts the bytes
// read and deserialized. `on_deserialize`, if set, runs inside the
// deserialize task, once the batch's records exist, and its work is the
// task's too. Returns the deserialize task, which the batch's replay
// tasks follow.
sim::TaskId AddReloadStage(const std::vector<GlobalBatch>& batches,
                           size_t index, const BatchGates* gates,
                           const std::vector<device::StorageDevice*>& ssds,
                           sim::TaskGraph* graph,
                           std::function<sim::Work()> on_deserialize = nullptr);

// Appends the release of batches[index], the stage every log-replay
// builder ends a batch with on a gated graph: one zero-cost task on
// `group` behind `replayed` (the batch's last tasks to read its records)
// that raises gates->horizon to the batch's largest commit TID, runs
// `free_state`, if set, to drop the per-batch state those tasks share,
// then gates->release(index). Without `gates` it adds nothing, so a
// simulated graph, which holds the whole log anyway, is unchanged and
// reclaims nothing.
void AddReleaseStage(const std::vector<GlobalBatch>& batches, size_t index,
                     const BatchGates* gates,
                     const std::vector<sim::TaskId>& replayed,
                     sim::GroupId group, sim::TaskGraph* graph,
                     std::function<void()> free_state = nullptr);

}  // namespace pacman::recovery

#endif  // PACMAN_RECOVERY_RECOVERY_H_
