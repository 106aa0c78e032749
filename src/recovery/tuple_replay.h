// Copyright (c) 2026 The PACMAN reproduction authors.
// Tuple-level log recovery schemes (paper §6.2):
//
//  - PLR: physical log replay. Multiple threads install after images under
//    per-tuple latches with the last-writer-wins (Thomas write) rule, then
//    rebuild all indexes in parallel at the end of log recovery.
//  - LLR: SiloR-style logical log replay. Same latched last-writer-wins
//    installs; indexes are maintained online during the replay.
//  - LLR-P: PACMAN's unified treatment of tuple-level logs (§4.5). Each
//    log entry is a write-only transaction; writes are shuffled by
//    (table, primary key) so each partition replays its keys in commit
//    order on one thread — no latches at all.
#ifndef PACMAN_RECOVERY_TUPLE_REPLAY_H_
#define PACMAN_RECOVERY_TUPLE_REPLAY_H_

#include "recovery/recovery.h"
#include "sim/task_graph.h"

namespace pacman::recovery {

// Appends the log-replay tasks for a tuple-level scheme (kPlr, kLlr or
// kLlrP) to `graph` using the standard group layout. `batches` must stay
// alive until the graph has run; their `records` are only read at
// dispatch time, so with `gates` (one gate task per batch, from
// AddBatchGates) the batches may still be loading when the graph is
// built — each batch's tasks are edged behind its gate, and a release
// task behind them hands the batch back to its loader.
//
// Database::Recover passes `num_shard_lanes` > 1 when this graph replays
// one of that many disjoint per-shard lanes: whole-database work (PLR's
// deferred index rebuild) then counts only the lane's share, the keys
// divided by the lanes — each lane rebuilds its own shard's indexes.
void BuildTupleLogReplay(Scheme scheme,
                         const std::vector<GlobalBatch>& batches,
                         const std::vector<device::StorageDevice*>& ssds,
                         storage::Catalog* catalog,
                         const RecoveryOptions& options,
                         sim::TaskGraph* graph,
                         const BatchGates* gates = nullptr,
                         uint32_t num_shard_lanes = 1);

}  // namespace pacman::recovery

#endif  // PACMAN_RECOVERY_TUPLE_REPLAY_H_
