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
                         sim::TaskGraph* graph, RecoveryCounters* counters,
                         const BatchGates* gates,
                         uint32_t num_shard_lanes) {
  PACMAN_CHECK(scheme == Scheme::kPlr || scheme == Scheme::kLlr ||
               scheme == Scheme::kLlrP);
  const CostModel cm = options.costs;
  const auto num_ssds = static_cast<uint32_t>(ssds.size());
  const sim::GroupId cpu = CpuGroup(num_ssds);
  const uint32_t n_threads = options.num_threads;
  const bool reload_only = options.reload_only;

  // Per-write replay cost. PLR skips online index maintenance (deferred
  // rebuild) but pays the per-tuple latch; LLR maintains indexes online.
  double write_cost = cm.write_op;
  if (scheme == Scheme::kPlr) write_cost -= cm.index_insert;
  const bool latched = scheme != Scheme::kLlrP;
  const double latch_cost =
      (latched && options.use_latches) ? cm.LatchCost(n_threads) : 0.0;

  // LLR-P partitions writes by key so batch b's partition p must follow
  // batch b-1's partition p; PLR/LLR installs are unordered (LWW).
  std::vector<sim::TaskId> prev_partition(n_threads, sim::kInvalidTask);
  std::vector<sim::TaskId> replay_tasks;  // For PLR's final index rebuild.

  for (size_t bi = 0; bi < batches.size(); ++bi) {
    const GlobalBatch& batch = batches[bi];
    const sim::TaskId deser =
        AddReloadStage(batches, bi, gates, ssds, cm, graph, counters);
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
                                                      n_threads, counters] {
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
      counters->AddRecords(b->records.size());
      return 0.0;
    });
    graph->AddEdge(deser, part);

    std::vector<sim::TaskId> batch_tasks;
    batch_tasks.reserve(n_threads);
    for (uint32_t p = 0; p < n_threads; ++p) {
      sim::TaskId t = graph->AddTask(cpu, batch.seq, [partitions, p, scheme,
                                                      catalog, counters,
                                                      write_cost, latch_cost,
                                                      latched] {
        const auto& part = (*partitions)[p];
        if (part.empty()) return 0.0;
        const double cost = static_cast<double>(part.size()) *
                            (write_cost + latch_cost);
        for (const ReplayWrite& w : part) {
          storage::Table* table = catalog->GetTable(w.image->table);
          storage::TupleSlot* slot = table->GetOrCreateSlot(w.image->key);
          // The image's row bytes are copied into the version as they are.
          const uint8_t* row = w.rec->ImageRow(*w.image);
          const size_t size = w.image->size;
          if (scheme == Scheme::kLlrP) {
            // Keys are partition-owned and their images arrive in
            // ascending commit TID — the per-key invariant the parallel
            // commit protocol maintains and the per-key order verifier
            // checked at load time; a global total order is neither
            // guaranteed nor needed. The in-order install below would
            // corrupt the chain on any violation (its begin_ts DCHECK is
            // the debug-build tripwire).
            storage::Table::InstallRowUnlatched(
                slot, row, size, w.rec->commit_ts, w.image->deleted);
          } else {
            // PLR/LLR threads replay out of order within the batch:
            // last-writer-wins by TID resolves same-key races, which is
            // sound for exactly the same reason — per key, TID order is
            // install order.
            storage::Table::InstallRowLastWriterWins(
                slot, row, size, w.rec->commit_ts, w.image->deleted);
          }
        }
        if (latched) counters->AddLatches(part.size());
        counters->AddUseful(cost);
        counters->AddTuples(part.size());
        return cost;
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
  // (§2.3). The work itself already happened online (the engine keeps its
  // indexes coherent); only the virtual cost is deferred here, preserving
  // the paper's cost structure.
  if (scheme == Scheme::kPlr && !reload_only) {
    // A per-shard lane rebuilds only its shard's partition indexes — the
    // lane's 1/num_shard_lanes share of the keys.
    sim::TaskId barrier = graph->AddTask(cpu, ~0ull);
    for (sim::TaskId t : replay_tasks) graph->AddEdge(t, barrier);
    for (uint32_t p = 0; p < n_threads; ++p) {
      sim::TaskId t = graph->AddTask(cpu, ~0ull, [catalog, counters, cm,
                                                  n_threads,
                                                  num_shard_lanes] {
        uint64_t keys = 0;
        for (const auto& table : catalog->tables()) keys += table->NumKeys();
        const double cost = cm.index_insert * static_cast<double>(keys) /
                            static_cast<double>(num_shard_lanes) / n_threads;
        counters->AddUseful(cost);
        return cost;
      });
      graph->AddEdge(barrier, t);
    }
  }
}

}  // namespace pacman::recovery
