// Copyright (c) 2026 The PACMAN reproduction authors.
// Checkpoint recovery (paper §2.3, §6.2.1).
//
// Restores the most recent transactionally-consistent checkpoint. Stripe
// files are read in parallel (bounded by device bandwidth) and loaded in
// parallel on the CPU pool. Scheme differences:
//   - PLR restores records only; all index reconstruction is deferred to
//     the log recovery phase, so its checkpoint stage is fastest.
//   - LLR exploits multi-versioning to restore concurrently without
//     single-version install ordering, slightly faster than the rest.
//   - LLR-P / CLR / CLR-P restore a single-version state and rebuild
//     indexes online, paying the full per-tuple cost here.
#ifndef PACMAN_RECOVERY_CHECKPOINT_RECOVERY_H_
#define PACMAN_RECOVERY_CHECKPOINT_RECOVERY_H_

#include "logging/checkpointer.h"
#include "recovery/recovery.h"
#include "sim/task_graph.h"

namespace pacman::recovery {

class CheckpointPrefetch;

// Appends the checkpoint-recovery tasks for `meta` to `graph` using the
// standard group layout (SSD groups + CPU pool). They load tuples into
// `catalog` and count the bytes read and deserialized and the tuples
// installed. Each stripe's read already runs on the load pool (`prefetch`,
// started for the same `meta`), so the stripes load in parallel with each
// other and with the log pipeline; the graph task walks the stripe's
// bytes, checks each row and installs it with one allocation and one copy
// (Table::LoadRow on encoded bytes). A malformed record aborts loudly,
// naming the stripe and the record's offset.
void BuildCheckpointRecovery(const logging::CheckpointMeta& meta,
                             CheckpointPrefetch& prefetch,
                             const std::vector<device::StorageDevice*>& ssds,
                             storage::Catalog* catalog,
                             const RecoveryOptions& options,
                             sim::TaskGraph* graph);

}  // namespace pacman::recovery

#endif  // PACMAN_RECOVERY_CHECKPOINT_RECOVERY_H_
