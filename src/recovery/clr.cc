#include "recovery/clr.h"

#include "common/macros.h"
#include "proc/exec_arena.h"

namespace pacman::recovery {

void BuildClrReplay(const std::vector<GlobalBatch>& batches,
                    const std::vector<device::StorageDevice*>& ssds,
                    storage::Catalog* catalog,
                    const proc::ProgramSet& programs,
                    const RecoveryOptions& options, sim::TaskGraph* graph,
                    RecoveryCounters* counters,
                    const std::vector<sim::TaskId>* batch_gates) {
  const CostModel cm = options.costs;
  const sim::GroupId cpu = CpuGroup(static_cast<uint32_t>(ssds.size()));
  const bool reload_only = options.reload_only;

  sim::TaskId prev_replay = sim::kInvalidTask;
  for (size_t bi = 0; bi < batches.size(); ++bi) {
    const GlobalBatch& batch = batches[bi];
    const sim::TaskId deser = AddReloadStage(batches, bi, batch_gates, ssds,
                                             cm, graph, counters);
    if (reload_only) continue;

    // Serial re-execution of the whole batch; the chain of replay tasks
    // enforces the single-threaded replay in ascending TID per batch.
    // Re-execution reproduces pre-crash state because commit TIDs order
    // every pair of conflicting transactions, anti-dependencies included
    // (txn/transaction_manager.h), and batches are TID intervals (drains
    // run at commit quiesce barriers), so batch-sequential replay is
    // TID-order replay — equivalent to the forward schedule.
    const GlobalBatch* b = &batch;
    sim::TaskId replay = graph->AddTask(cpu, batch.seq, [b, catalog, counters,
                                                         cm, &programs] {
      proc::ReplayAccess access(catalog, proc::InstallMode::kUnlatched);
      // Replay-thread arena: VM registers/locals/scratch recycled across
      // all re-executed transactions of this thread.
      thread_local proc::ExecArena arena;
      double cost = 0.0;
      for (const logging::LogRecord* rec : b->records) {
        access.set_commit_ts(rec->commit_ts);
        const uint64_t reads0 = access.reads();
        const uint64_t writes0 = access.writes();
        if (rec->is_adhoc()) {
          // Ad-hoc entries carry logical images: reinstall directly.
          for (const logging::WriteImage& img : rec->writes) {
            access.Write(img.table, img.key, img.after, img.deleted, false);
          }
        } else {
          proc::VmState vm =
              arena.Bind(programs.Get(rec->proc), &rec->params);
          Status s = proc::VmExecuteAll(&vm, &access);
          PACMAN_CHECK(s.ok());
        }
        cost += cm.txn_dispatch +
                cm.read_op * static_cast<double>(access.reads() - reads0) +
                cm.write_op * static_cast<double>(access.writes() - writes0);
      }
      counters->AddRecords(b->records.size());
      counters->AddTuples(access.writes());
      counters->AddUseful(cost);
      return cost;
    });
    graph->AddEdge(deser, replay);
    if (prev_replay != sim::kInvalidTask) {
      graph->AddEdge(prev_replay, replay);
    }
    prev_replay = replay;
  }
}

}  // namespace pacman::recovery
