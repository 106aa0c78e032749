#include "recovery/clr_p.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "common/macros.h"
#include "proc/exec_arena.h"

namespace pacman::recovery {

namespace {

// Replay state of one logged transaction within a batch.
struct TxnReplay {
  const logging::LogRecord* rec = nullptr;
  // Locals shared by all pieces of the transaction (different threads may
  // run them): one view per read, into a version that stays in its chain
  // however many installs later supersede it, until the batch is released
  // (BatchGates). Registers and scratch are bound from each replay
  // thread's own arena at piece execution time.
  proc::VmTxnLocals vm_locals;
};

// Maps each table that any procedure (or ad-hoc transaction) writes to the
// unique GDG block containing all slices that touch it.
std::unordered_map<TableId, BlockId> BuildTableBlockMap(
    const analysis::GlobalDependencyGraph& gdg,
    const proc::ProcedureRegistry* registry) {
  std::unordered_map<TableId, BlockId> map;
  for (ProcId p = 0; p < gdg.proc_pieces.size(); ++p) {
    const proc::ProcedureDef& def = registry->Get(p);
    for (const analysis::ProcPiece& piece : gdg.proc_pieces[p]) {
      for (OpIndex oi : piece.ops) {
        const proc::Operation& op = def.ops[oi];
        auto [it, inserted] = map.emplace(op.table_id, piece.block);
        // Data-dependence merging guarantees a single owner block for any
        // table with a writer; reads of read-only tables may appear in
        // several blocks and are not registered.
        if (!inserted && op.IsModification()) it->second = piece.block;
      }
    }
  }
  return map;
}

}  // namespace

std::vector<uint32_t> PlanClrPLayout(
    const analysis::GlobalDependencyGraph& gdg,
    const std::vector<GlobalBatch>& batches,
    const proc::ProcedureRegistry* registry, const RecoveryOptions& options) {
  const auto num_blocks = static_cast<uint32_t>(gdg.NumBlocks());
  const uint32_t num_threads = options.num_threads;
  PACMAN_CHECK(num_blocks > 0);

  // Workload distribution over blocks, estimated at log reloading time
  // (§4.4). Each piece contributes its weight (its ops plus its dispatch),
  // so blocks with heavy pieces (e.g. TPC-C's CUSTOMER/ORDER_LINE block)
  // receive a proportional share of cores.
  // Per-procedure per-block weight of one instantiated piece.
  std::vector<std::unordered_map<BlockId, double>> piece_cost(
      gdg.proc_pieces.size());
  for (ProcId p = 0; p < gdg.proc_pieces.size(); ++p) {
    const proc::ProcedureDef& def = registry->Get(p);
    for (const analysis::ProcPiece& piece : gdg.proc_pieces[p]) {
      sim::Work work{.pieces = 1, .param_checks = 1};
      for (OpIndex oi : piece.ops) {
        ++(def.ops[oi].IsModification() ? work.writes : work.reads);
      }
      piece_cost[p][piece.block] =
          options.costs.PieceWeight(work, num_threads);
    }
  }
  // Ad-hoc records replay as write-only pieces routed by the written
  // table's owning block (§4.5); count them into the distribution too.
  const std::unordered_map<TableId, BlockId> table_block =
      BuildTableBlockMap(gdg, registry);
  const double adhoc_write =
      options.costs.PieceWeight(sim::Work{.writes = 1}, num_threads);
  std::vector<double> piece_count(num_blocks, 0.0);
  for (const GlobalBatch& b : batches) {
    for (const logging::LogRecord* rec : b.records) {
      if (rec->is_adhoc()) {
        for (const logging::WriteImage& img : rec->writes) {
          auto it = table_block.find(img.table);
          if (it != table_block.end()) {
            piece_count[it->second] += adhoc_write;
          }
        }
        continue;
      }
      for (const auto& [block, cost] : piece_cost[rec->proc]) {
        piece_count[block] += cost;
      }
    }
  }
  double total = 0.0;
  for (double c : piece_count) total += c;
  if (total == 0.0) {
    for (double& c : piece_count) c = 1.0;
    total = num_blocks;
  }

  // Proportional assignment, at least one core per block. The pool itself
  // has exactly num_threads cores, so over-subscription (more blocks than
  // threads) resolves as genuine contention in the simulation.
  std::vector<uint32_t> block_cores(num_blocks);
  for (uint32_t k = 0; k < num_blocks; ++k) {
    block_cores[k] = std::max(
        1u, static_cast<uint32_t>(
                std::llround(num_threads * piece_count[k] / total)));
  }
  return block_cores;
}

void BuildClrPReplay(const analysis::GlobalDependencyGraph& gdg,
                     const std::vector<GlobalBatch>& batches,
                     const std::vector<device::StorageDevice*>& ssds,
                     storage::Catalog* catalog,
                     const proc::ProcedureRegistry* registry,
                     const proc::ProgramSet& programs,
                     const RecoveryOptions& options,
                     const std::vector<uint32_t>& block_cores,
                     sim::TaskGraph* graph, const BatchGates* gates) {
  const auto num_blocks = static_cast<uint32_t>(gdg.NumBlocks());
  const sim::GroupId cpu = CpuGroup(static_cast<uint32_t>(ssds.size()));
  const bool reload_only = options.reload_only;
  const PacmanMode mode = options.mode;

  // A gated graph reclaims below its released batches (BatchGates).
  const std::atomic<Timestamp>* horizon =
      gates != nullptr ? &gates->horizon : nullptr;
  // Shared by the task closures, which may outlive this builder frame.
  auto table_block =
      std::make_shared<std::unordered_map<TableId, BlockId>>(
          BuildTableBlockMap(gdg, registry));

  std::vector<sim::TaskId> prev_ps(num_blocks, sim::kInvalidTask);
  sim::TaskId prev_barrier = sim::kInvalidTask;

  for (size_t bi = 0; bi < batches.size(); ++bi) {
    const GlobalBatch& batch = batches[bi];
    // --- Reload stage: also binds each transaction's replay state -------
    auto txns = std::make_shared<std::vector<TxnReplay>>();
    const GlobalBatch* b = &batch;
    const sim::TaskId deser = AddReloadStage(
        batches, bi, gates, ssds, graph, [b, txns, &programs] {
          txns->resize(b->records.size());
          for (size_t i = 0; i < b->records.size(); ++i) {
            const logging::LogRecord* rec = b->records[i];
            (*txns)[i].rec = rec;
            if (!rec->is_adhoc()) {
              (*txns)[i].vm_locals.Reset(
                  programs.Get(rec->proc).num_locals);
            }
          }
          return sim::Work{.records = b->records.size()};
        });
    // Frees the transactions' shared replay state with the batch.
    auto free_state = [txns] { *txns = {}; };
    if (reload_only) {
      AddReleaseStage(batches, bi, gates, {deser}, cpu, graph, free_state);
      continue;
    }

    // --- Piece-set tasks ------------------------------------------------
    // A piece-set is one task on its block's assigned cores of the shared
    // CPU pool (§4.4). It replays its pieces and records them as a DAG,
    // which the simulator list-schedules on those cores.
    std::vector<sim::TaskId> ps_tasks(num_blocks);
    for (BlockId k = 0; k < num_blocks; ++k) {
      const uint32_t cores =
          mode == PacmanMode::kStaticOnly ? 1u : block_cores[k];
      auto run_piece_set = [txns, k, mode, catalog, horizon, table_block,
                            &gdg, &programs] {
        proc::ReplayAccess access(catalog, horizon);
        // This replay thread's private registers/scratch; the
        // per-transaction locals live in TxnReplay::vm_locals.
        thread_local proc::ExecArena arena;
        // Pieces execute in batch order == ascending commit TID, and the
        // DAG's conflict chains serialize pieces that share a key in that
        // order. This re-executes commands correctly because TIDs order
        // all conflicting transactions (w-w, w-r and r-w; see
        // txn/transaction_manager.h) — CLR-P needs no global total order,
        // only that conflicting pieces replay in TID order.
        sim::TaskWork out;
        std::vector<std::pair<TableId, Key>> access_set;
        Row image;  // Ad-hoc images decode here, one at a time.

        for (TxnReplay& txn : *txns) {
          const logging::LogRecord* rec = txn.rec;
          // Resolve this transaction's piece for block k. An ad-hoc
          // piece's access set is the images it writes.
          const std::vector<OpIndex>* ops = nullptr;
          if (rec->is_adhoc()) {
            access_set.clear();
            for (const logging::WriteImage& img : rec->writes) {
              auto it = table_block->find(img.table);
              PACMAN_CHECK(it != table_block->end());
              if (it->second == k) access_set.emplace_back(img.table, img.key);
            }
            if (access_set.empty()) continue;
          } else {
            for (const auto& piece : gdg.proc_pieces[rec->proc]) {
              if (piece.block == k) ops = &piece.ops;
            }
            if (ops == nullptr) continue;
          }

          // Marry the transaction's shared locals to this thread's
          // registers for both the dynamic analysis and the piece
          // execution below.
          proc::VmState vm;
          if (!rec->is_adhoc()) {
            vm = arena.BindShared(programs.Get(rec->proc), &rec->params,
                                  &txn.vm_locals);
          }

          // Dynamic analysis: access set from the runtime parameters
          // (§4.3.1). Must run *before* executing the piece. Without it
          // (§4.2.1) the piece-set runs serially on its one core.
          const bool dynamic = mode != PacmanMode::kStaticOnly;
          const bool resolved =
              dynamic && (rec->is_adhoc() ||
                          proc::VmTryExtractAccessSet(*ops, &vm, &access_set));

          // Execute the piece for real, counting its operations.
          access.set_commit_ts(rec->commit_ts);
          const uint64_t r0 = access.reads(), w0 = access.writes();
          if (rec->is_adhoc()) {
            for (const logging::WriteImage& img : rec->writes) {
              auto it = table_block->find(img.table);
              if (it->second == k) {
                rec->DecodeImage(img, &image);
                access.Write(img.table, img.key, image, img.deleted, false);
              }
            }
          } else {
            Status s = proc::VmExecuteOps(*ops, &vm, &access);
            PACMAN_CHECK(s.ok());
          }
          const sim::Work piece{.reads = access.reads() - r0,
                                .writes = access.writes() - w0,
                                .pieces = dynamic,
                                .param_checks = dynamic};
          if (resolved) {
            out.AddResolved(piece, access_set);
          } else {
            out.AddUnresolved(piece);
          }
        }
        // The piece-set coordinates its activation once its last piece is
        // done (§4.2.1).
        out.AddUnresolved(sim::Work{.piece_sets = 1});
        return out;
      };

      sim::TaskId ps =
          graph->AddTask(cpu, batch.seq, std::move(run_piece_set), cores);
      graph->AddEdge(deser, ps);
      for (BlockId dep : gdg.blocks[k].deps) {
        graph->AddEdge(ps_tasks[dep], ps);
      }
      if (mode == PacmanMode::kPipelined) {
        if (prev_ps[k] != sim::kInvalidTask) graph->AddEdge(prev_ps[k], ps);
      } else if (prev_barrier != sim::kInvalidTask) {
        graph->AddEdge(prev_barrier, ps);
      }
      ps_tasks[k] = ps;
    }

    if (mode != PacmanMode::kPipelined) {
      // Synchronous execution: a barrier separates consecutive batches
      // (Fig. 9a).
      sim::TaskId barrier = graph->AddTask(cpu, batch.seq);
      for (BlockId k = 0; k < num_blocks; ++k) {
        graph->AddEdge(ps_tasks[k], barrier);
      }
      prev_barrier = barrier;
    }
    AddReleaseStage(batches, bi, gates, ps_tasks, cpu, graph, free_state);
    prev_ps = ps_tasks;
  }
}

}  // namespace pacman::recovery
