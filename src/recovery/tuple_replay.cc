#include "recovery/tuple_replay.h"

#include <memory>

#include "common/macros.h"
#include "storage/table.h"

namespace pacman::recovery {

namespace {

// A write to replay: the image and the record holding its row bytes and
// commit timestamp.
struct ReplayWrite {
  const logging::LogRecord* rec;
  const logging::WriteImage* image;
};

}  // namespace

void BuildTupleLogReplay(Scheme scheme,
                         const std::vector<GlobalBatch>& batches,
                         const std::vector<device::StorageDevice*>& ssds,
                         storage::Catalog* catalog,
                         const RecoveryOptions& options,
                         sim::TaskGraph* graph, const BatchGates* gates,
                         uint32_t num_shard_lanes) {
  PACMAN_CHECK(scheme == Scheme::kPlr || scheme == Scheme::kLlr ||
               scheme == Scheme::kLlrP);
  const sim::GroupId cpu = CpuGroup(static_cast<uint32_t>(ssds.size()));
  const uint32_t n_threads = options.num_threads;
  const bool reload_only = options.reload_only;
  // PLR and LLR install under per-tuple latches; LLR-P's key-owned
  // partitions need none.
  const bool latched = scheme != Scheme::kLlrP;

  // LLR-P partitions writes by key so batch b's partition p must follow
  // batch b-1's partition p; PLR/LLR installs are unordered (LWW).
  std::vector<sim::TaskId> prev_partition(n_threads, sim::kInvalidTask);
  std::vector<sim::TaskId> replay_tasks;  // For PLR's final index rebuild.

  for (size_t bi = 0; bi < batches.size(); ++bi) {
    const GlobalBatch& batch = batches[bi];
    const sim::TaskId deser = AddReloadStage(batches, bi, gates, ssds, graph);
    if (reload_only) {
      AddReleaseStage(batches, bi, gates, {deser}, cpu, graph);
      continue;
    }

    // Partition the batch's writes across threads, at dispatch time (the
    // records may not exist yet when the graph is built — the streaming
    // pipeline publishes them behind this batch's gate). PLR/LLR:
    // round-robin (any thread may touch any tuple -> latches + LWW).
    // LLR-P: by key hash (each key owned by one partition -> latch-free,
    // in order).
    auto partitions =
        std::make_shared<std::vector<std::vector<ReplayWrite>>>(n_threads);
    const GlobalBatch* b = &batch;
    sim::TaskId part = graph->AddTask(cpu, batch.seq, [b, partitions, scheme,
                                                      n_threads] {
      size_t total_writes = 0;
      for (const logging::LogRecord* rec : b->records) {
        total_writes += rec->writes.size();
      }
      for (auto& p : *partitions) {
        p.reserve(total_writes / n_threads + 1);
      }
      uint64_t rr = 0;
      for (const logging::LogRecord* rec : b->records) {
        for (const logging::WriteImage& img : rec->writes) {
          size_t p;
          if (scheme == Scheme::kLlrP) {
            uint64_t h =
                (img.key * 0x9e3779b97f4a7c15ull) ^
                (static_cast<uint64_t>(img.table) * 0xc2b2ae3d27d4eb4full);
            p = h % n_threads;
          } else {
            p = rr++ % n_threads;
          }
          (*partitions)[p].push_back({rec, &img});
        }
      }
      return sim::Work{.records = b->records.size()};
    });
    graph->AddEdge(deser, part);

    std::vector<sim::TaskId> batch_tasks;
    batch_tasks.reserve(n_threads);
    for (uint32_t p = 0; p < n_threads; ++p) {
      sim::TaskId t = graph->AddTask(cpu, batch.seq, [partitions, p, scheme,
                                                      catalog, latched] {
        const auto& part = (*partitions)[p];
        for (const ReplayWrite& w : part) {
          storage::Table* table = catalog->GetTable(w.image->table);
          storage::TupleSlot* slot = table->GetOrCreateSlot(w.image->key);
          // The image's row bytes are copied into the version as they are.
          const uint8_t* row = w.rec->ImageRow(*w.image);
          const size_t size = w.image->size;
          // Tuple replay views no version, so each install frees every
          // version below its own: a key keeps one version, its newest.
          const Timestamp horizon = w.rec->commit_ts;
          if (scheme == Scheme::kLlrP) {
            // Keys are partition-owned and their images arrive in
            // ascending commit TID — the per-key invariant the parallel
            // commit protocol maintains and the per-key order verifier
            // checked at load time; a global total order is neither
            // guaranteed nor needed. The in-order install below would
            // corrupt the chain on any violation (its begin_ts DCHECK is
            // the debug-build tripwire).
            storage::Table::InstallRowUnlatched(slot, row, size,
                                                w.rec->commit_ts,
                                                w.image->deleted, horizon);
          } else {
            // PLR/LLR threads replay out of order within the batch:
            // last-writer-wins by TID resolves same-key races, which is
            // sound for exactly the same reason — per key, TID order is
            // install order.
            storage::Table::InstallRowLastWriterWins(
                slot, row, size, w.rec->commit_ts, w.image->deleted,
                horizon);
          }
        }
        return sim::Work{.writes = part.size(),
                         .latched_writes = latched ? part.size() : 0};
      });
      graph->AddEdge(part, t);
      if (scheme == Scheme::kLlrP &&
          prev_partition[p] != sim::kInvalidTask) {
        graph->AddEdge(prev_partition[p], t);
      }
      prev_partition[p] = t;
      replay_tasks.push_back(t);
      batch_tasks.push_back(t);
    }
    AddReleaseStage(batches, bi, gates, batch_tasks, cpu, graph,
                    [partitions] { *partitions = {}; });
  }

  // PLR: rebuild all database indexes in parallel after the log replay
  // (§2.3), on all the pool's cores. The work itself already happened
  // online (the engine keeps its indexes coherent); only its count is
  // deferred here, preserving the paper's cost structure.
  if (scheme == Scheme::kPlr && !reload_only) {
    const sim::TaskId rebuild = graph->AddTask(
        cpu, ~0ull,
        [catalog, num_shard_lanes] {
          uint64_t keys = 0;
          for (const auto& table : catalog->tables()) {
            keys += table->NumKeys();
          }
          // A per-shard lane rebuilds only its shard's partition indexes:
          // the lane's 1/num_shard_lanes share of the keys.
          return sim::Work{.index_keys_rebuilt = keys / num_shard_lanes};
        },
        /*cores=*/n_threads);
    for (sim::TaskId t : replay_tasks) graph->AddEdge(t, rebuild);
  }
}

}  // namespace pacman::recovery
