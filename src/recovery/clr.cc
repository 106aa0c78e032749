#include "recovery/clr.h"

#include "common/macros.h"
#include "proc/exec_arena.h"

namespace pacman::recovery {

void BuildClrReplay(const std::vector<GlobalBatch>& batches,
                    const std::vector<device::StorageDevice*>& ssds,
                    storage::Catalog* catalog,
                    const proc::ProgramSet& programs,
                    const RecoveryOptions& options, sim::TaskGraph* graph,
                    const BatchGates* gates) {
  const sim::GroupId cpu = CpuGroup(static_cast<uint32_t>(ssds.size()));
  const bool reload_only = options.reload_only;

  sim::TaskId prev_replay = sim::kInvalidTask;
  for (size_t bi = 0; bi < batches.size(); ++bi) {
    const GlobalBatch& batch = batches[bi];
    const sim::TaskId deser = AddReloadStage(batches, bi, gates, ssds, graph);
    if (reload_only) {
      AddReleaseStage(batches, bi, gates, {deser}, cpu, graph);
      continue;
    }

    // Serial re-execution of the whole batch; the chain of replay tasks
    // enforces the single-threaded replay in ascending TID per batch.
    // Re-execution reproduces pre-crash state because commit TIDs order
    // every pair of conflicting transactions, anti-dependencies included
    // (txn/transaction_manager.h), and batches are TID intervals (drains
    // run at commit quiesce barriers), so batch-sequential replay is
    // TID-order replay — equivalent to the forward schedule.
    const GlobalBatch* b = &batch;
    // A gated graph reclaims below its released batches (BatchGates).
    const std::atomic<Timestamp>* horizon =
        gates != nullptr ? &gates->horizon : nullptr;
    sim::TaskId replay = graph->AddTask(cpu, batch.seq, [b, catalog, horizon,
                                                         &programs] {
      proc::ReplayAccess access(catalog, horizon);
      // Replay-thread arena: VM registers/locals/scratch recycled across
      // all re-executed transactions of this thread.
      thread_local proc::ExecArena arena;
      Row image;  // Ad-hoc images decode here, one at a time.
      for (const logging::LogRecord* rec : b->records) {
        access.set_commit_ts(rec->commit_ts);
        if (rec->is_adhoc()) {
          // Ad-hoc entries carry logical images: reinstall directly.
          for (const logging::WriteImage& img : rec->writes) {
            rec->DecodeImage(img, &image);
            access.Write(img.table, img.key, image, img.deleted, false);
          }
        } else {
          proc::VmState vm =
              arena.Bind(programs.Get(rec->proc), &rec->params);
          Status s = proc::VmExecuteAll(&vm, &access);
          PACMAN_CHECK(s.ok());
        }
      }
      return sim::Work{.records = b->records.size(),
                       .reads = access.reads(),
                       .writes = access.writes()};
    });
    graph->AddEdge(deser, replay);
    if (prev_replay != sim::kInvalidTask) {
      graph->AddEdge(prev_replay, replay);
    }
    prev_replay = replay;
    AddReleaseStage(batches, bi, gates, {replay}, cpu, graph);
  }
}

}  // namespace pacman::recovery
