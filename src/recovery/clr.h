// Copyright (c) 2026 The PACMAN reproduction authors.
// CLR: conventional command-log recovery (paper §6.2).
//
// Log files are reloaded in parallel, but the lost transactions are
// re-executed strictly in commit order by a single thread — the behaviour
// this paper sets out to fix.
#ifndef PACMAN_RECOVERY_CLR_H_
#define PACMAN_RECOVERY_CLR_H_

#include "proc/compiler.h"
#include "recovery/recovery.h"
#include "sim/task_graph.h"

namespace pacman::recovery {

// `batches` must stay alive until the graph has run; records are read at
// dispatch time only, so with `gates` (AddBatchGates) each batch may
// still be loading when the graph is built, and is released once
// replayed. Transactions re-execute through the VM on `programs`
// (Database::FinalizeSchema).
void BuildClrReplay(const std::vector<GlobalBatch>& batches,
                    const std::vector<device::StorageDevice*>& ssds,
                    storage::Catalog* catalog,
                    const proc::ProgramSet& programs,
                    const RecoveryOptions& options, sim::TaskGraph* graph,
                    const BatchGates* gates = nullptr);

}  // namespace pacman::recovery

#endif  // PACMAN_RECOVERY_CLR_H_
