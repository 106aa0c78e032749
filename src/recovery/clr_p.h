// Copyright (c) 2026 The PACMAN reproduction authors.
// CLR-P: the PACMAN parallel command-log recovery runtime (paper §4).
//
// For every log batch PACMAN instantiates one piece-set per GDG block
// (§4.2); piece-sets are the coordination granularity (§4.2.1). Cores are
// assigned to blocks proportionally to the observed workload distribution
// (§4.4). When a piece-set activates, the runtime parameter values of its
// pieces are available (from the log and from upstream piece-sets), so the
// dynamic analysis computes each piece's (table, key) access set and
// chains only truly conflicting pieces; everything else runs in parallel
// latch-free (§4.3.1). Batches are pipelined: piece-set (batch b, block k)
// needs only its same-batch dependencies and (b-1, k), not a global
// barrier (§4.3.2). Ad-hoc transactions appear as write-only pieces routed
// to the block owning the written table (§4.5).
#ifndef PACMAN_RECOVERY_CLR_P_H_
#define PACMAN_RECOVERY_CLR_P_H_

#include "analysis/global_graph.h"
#include "proc/compiler.h"
#include "proc/registry.h"
#include "recovery/recovery.h"
#include "sim/machine.h"
#include "sim/task_graph.h"

namespace pacman::recovery {

// The core-to-block assignment for one CLR-P run (§4.4, Fig. 10). All
// recovery threads form one pool; every piece-set of block k is executed
// as `block_cores[k]` worker tasks on that pool. The first worker replays
// the piece-set and list-schedules its pieces onto the block's cores; on
// the simulated machine the extra workers occupy the other assigned cores
// for that makespan, so contention between blocks emerges from the
// simulation rather than from an analytic correction. On real threads the
// extra workers finish at once.
struct ClrPLayout {
  sim::MachineConfig machine;          // SSD groups + one CPU pool.
  sim::GroupId cpu_group = 0;          // The pool's group id.
  std::vector<uint32_t> block_cores;   // BlockId -> cores (>= 1).
};

// Computes the per-block core assignment from the piece distribution of
// the reloaded batches (§4.4, Fig. 10), weighted by the cost model so
// heavy blocks get proportional shares. The distribution is an estimate
// made "at log reloading time": the simulated backend passes every batch;
// the overlapped real-thread replay passes the first merged batch as a
// sample (the assignment shapes scheduling, never correctness, and waiting
// for the full log would forfeit the load/replay overlap).
ClrPLayout PlanClrPLayout(const analysis::GlobalDependencyGraph& gdg,
                          const std::vector<GlobalBatch>& batches,
                          const proc::ProcedureRegistry* registry,
                          uint32_t num_ssds,
                          const RecoveryOptions& options);

// Appends the PACMAN log-replay tasks to `graph` using `layout`'s groups.
// `options.mode` selects static-only / synchronous / pipelined execution.
// `batches` must stay alive until the graph has run; records are read at
// dispatch time only, so with `batch_gates` (AddBatchGates) each batch
// may still be loading when the graph is built. Pieces execute through
// the VM on `programs`: per-transaction locals are shared across the
// replay threads while registers and scratch stay thread-private in each
// thread's arena.
void BuildClrPReplay(const analysis::GlobalDependencyGraph& gdg,
                     const std::vector<GlobalBatch>& batches,
                     const std::vector<device::StorageDevice*>& ssds,
                     storage::Catalog* catalog,
                     const proc::ProcedureRegistry* registry,
                     const proc::ProgramSet& programs,
                     const RecoveryOptions& options,
                     const ClrPLayout& layout, sim::TaskGraph* graph,
                     RecoveryCounters* counters,
                     const std::vector<sim::TaskId>* batch_gates = nullptr);

}  // namespace pacman::recovery

#endif  // PACMAN_RECOVERY_CLR_P_H_
