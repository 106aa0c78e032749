#include "recovery/clr_p.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "common/macros.h"
#include "proc/exec_arena.h"

namespace pacman::recovery {

namespace {

// Packed (table, key) used by the conflict-chain maps. Workload keys use
// well under 56 bits; the table id occupies the top byte, so the packing
// is exact (no false conflicts).
uint64_t PackAccess(TableId table, Key key) {
  PACMAN_DCHECK(key < (1ull << 56));
  return (static_cast<uint64_t>(table) << 56) | key;
}

// Replay state of one logged transaction within a batch.
struct TxnReplay {
  const logging::LogRecord* rec = nullptr;
  // Locals/present shared by all pieces of the transaction (different
  // threads may run them); registers and scratch are bound from each
  // replay thread's own arena at piece execution time.
  proc::VmTxnLocals vm_locals;
};

struct BatchState {
  std::vector<TxnReplay> txns;
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

ClrPLayout PlanClrPLayout(const analysis::GlobalDependencyGraph& gdg,
                          const std::vector<GlobalBatch>& batches,
                          const proc::ProcedureRegistry* registry,
                          uint32_t num_ssds,
                          const RecoveryOptions& options) {
  const auto num_blocks = static_cast<uint32_t>(gdg.NumBlocks());
  const uint32_t num_threads = options.num_threads;
  const CostModel& cm = options.costs;
  PACMAN_CHECK(num_blocks > 0);
  ClrPLayout layout;
  for (uint32_t d = 0; d < num_ssds; ++d) {
    layout.machine.cores_per_group.push_back(1);
  }

  // Workload distribution over blocks, estimated at log reloading time
  // (§4.4). Each piece contributes its modeled replay cost (per-op costs
  // plus per-piece dispatch), so blocks with heavy pieces (e.g. TPC-C's
  // CUSTOMER/ORDER_LINE block) receive a proportional share of cores.
  const double piece_overhead =
      cm.piece_param_check + cm.SchedCost(num_threads);
  // Per-procedure per-block cost of one instantiated piece.
  std::vector<std::unordered_map<BlockId, double>> piece_cost(
      gdg.proc_pieces.size());
  for (ProcId p = 0; p < gdg.proc_pieces.size(); ++p) {
    const proc::ProcedureDef& def = registry->Get(p);
    for (const analysis::ProcPiece& piece : gdg.proc_pieces[p]) {
      double cost = piece_overhead;
      for (OpIndex oi : piece.ops) {
        cost += def.ops[oi].IsModification() ? cm.write_op : cm.read_op;
      }
      piece_cost[p][piece.block] = cost;
    }
  }
  // Ad-hoc records replay as write-only pieces routed by the written
  // table's owning block (§4.5); count them into the distribution too.
  const std::unordered_map<TableId, BlockId> table_block =
      BuildTableBlockMap(gdg, registry);
  std::vector<double> piece_count(num_blocks, 0.0);
  for (const GlobalBatch& b : batches) {
    for (const logging::LogRecord* rec : b.records) {
      if (rec->is_adhoc()) {
        for (const logging::WriteImage& img : rec->writes) {
          auto it = table_block.find(img.table);
          if (it != table_block.end()) {
            piece_count[it->second] += cm.write_op;
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
  layout.block_cores.resize(num_blocks);
  for (uint32_t k = 0; k < num_blocks; ++k) {
    layout.block_cores[k] = std::max(
        1u, static_cast<uint32_t>(
                std::llround(num_threads * piece_count[k] / total)));
  }
  layout.cpu_group = num_ssds;
  layout.machine.cores_per_group.push_back(num_threads);
  return layout;
}

void BuildClrPReplay(const analysis::GlobalDependencyGraph& gdg,
                     const std::vector<GlobalBatch>& batches,
                     const std::vector<device::StorageDevice*>& ssds,
                     storage::Catalog* catalog,
                     const proc::ProcedureRegistry* registry,
                     const proc::ProgramSet& programs,
                     const RecoveryOptions& options,
                     const ClrPLayout& layout, sim::TaskGraph* graph,
                     RecoveryCounters* counters,
                     const std::vector<sim::TaskId>* batch_gates) {
  const CostModel cm = options.costs;
  const auto num_blocks = static_cast<uint32_t>(gdg.NumBlocks());
  const bool reload_only = options.reload_only;
  const PacmanMode mode = options.mode;
  const uint32_t total_threads = options.num_threads;

  // Per-procedure: block id -> ops of that piece. Shared by the task
  // closures, which may outlive this builder frame.
  auto piece_ops = std::make_shared<std::vector<
      std::unordered_map<BlockId, const std::vector<OpIndex>*>>>(
      gdg.proc_pieces.size());
  for (ProcId p = 0; p < gdg.proc_pieces.size(); ++p) {
    for (const analysis::ProcPiece& piece : gdg.proc_pieces[p]) {
      (*piece_ops)[p][piece.block] = &piece.ops;
    }
  }
  auto table_block =
      std::make_shared<std::unordered_map<TableId, BlockId>>(
          BuildTableBlockMap(gdg, registry));

  std::vector<sim::TaskId> prev_ps(num_blocks, sim::kInvalidTask);
  sim::TaskId prev_barrier = sim::kInvalidTask;

  for (size_t bi = 0; bi < batches.size(); ++bi) {
    const GlobalBatch& batch = batches[bi];
    // --- Reload stage: also binds each transaction's replay state -------
    auto bstate = std::make_shared<BatchState>();
    const GlobalBatch* b = &batch;
    const sim::TaskId deser = AddReloadStage(
        batches, bi, batch_gates, ssds, cm, graph, counters,
        [b, bstate, counters, &programs] {
          bstate->txns.resize(b->records.size());
          for (size_t i = 0; i < b->records.size(); ++i) {
            const logging::LogRecord* rec = b->records[i];
            bstate->txns[i].rec = rec;
            if (!rec->is_adhoc()) {
              bstate->txns[i].vm_locals.Reset(
                  programs.Get(rec->proc).num_locals);
            }
          }
          counters->AddRecords(b->records.size());
        });
    if (reload_only) continue;

    // --- Piece-set tasks ------------------------------------------------
    // A piece-set runs as `cores` worker tasks on the shared CPU pool (its
    // assigned cores, §4.4). The first worker performs the real replay and
    // computes the internal parallel makespan; the others only occupy the
    // block's other cores for that long on the simulated machine.
    // ps_tasks[k] is the join task.
    std::vector<sim::TaskId> ps_tasks(num_blocks);
    for (BlockId k = 0; k < num_blocks; ++k) {
      const uint32_t cores =
          mode == PacmanMode::kStaticOnly ? 1u : layout.block_cores[k];
      auto computed = std::make_shared<std::atomic<double>>(-1.0);
      auto run_piece_set = [bstate, k, cores, mode, catalog,
                            counters, cm, total_threads,
                            table_block, piece_ops, &programs]() -> double {
        proc::ReplayAccess access(catalog, proc::InstallMode::kUnlatched);
        // This replay thread's private registers/scratch; the
        // per-transaction locals live in TxnReplay::vm_locals.
        thread_local proc::ExecArena arena;
        // Pieces execute in batch order == ascending commit TID, and the
        // conflict chains below serialize pieces that share a key in that
        // order. This re-executes commands correctly because TIDs order
        // all conflicting transactions (w-w, w-r and r-w; see
        // txn/transaction_manager.h) — CLR-P needs no global total order,
        // only that conflicting pieces replay in TID order.
        //
        // Conflict chains: last finish time per (table,key); plus the
        // finish time of the last unresolved (conservatively serialized)
        // piece.
        std::unordered_map<uint64_t, double> key_finish;
        key_finish.reserve(bstate->txns.size() * 4);
        std::vector<double> core_free(cores, 0.0);
        double barrier_time = 0.0;
        double max_finish = 0.0;
        double serial_time = 0.0;
        double useful = 0.0, param = 0.0, sched = 0.0;
        std::vector<std::pair<TableId, Key>> access_set;

        for (TxnReplay& txn : bstate->txns) {
          const logging::LogRecord* rec = txn.rec;
          // Resolve this transaction's piece for block k.
          const std::vector<OpIndex>* ops = nullptr;
          std::vector<std::pair<TableId, Key>> adhoc_writes;
          if (rec->is_adhoc()) {
            for (const logging::WriteImage& img : rec->writes) {
              auto it = table_block->find(img.table);
              PACMAN_CHECK(it != table_block->end());
              if (it->second == k) {
                adhoc_writes.emplace_back(img.table, img.key);
              }
            }
            if (adhoc_writes.empty()) continue;
          } else {
            auto it = (*piece_ops)[rec->proc].find(k);
            if (it == (*piece_ops)[rec->proc].end()) continue;
            ops = it->second;
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
          // (§4.3.1). Must run *before* executing the piece.
          bool resolved = false;
          const bool dynamic = mode != PacmanMode::kStaticOnly;
          if (dynamic) {
            if (rec->is_adhoc()) {
              access_set = adhoc_writes;
              resolved = true;
            } else {
              resolved = proc::VmTryExtractAccessSet(*ops, &vm, &access_set);
            }
            param += cm.piece_param_check;
          }

          // Execute the piece for real, measuring its operation counts.
          access.set_commit_ts(rec->commit_ts);
          const uint64_t r0 = access.reads(), w0 = access.writes();
          if (rec->is_adhoc()) {
            for (const logging::WriteImage& img : rec->writes) {
              auto it = table_block->find(img.table);
              if (it->second == k) {
                access.Write(img.table, img.key, img.after, img.deleted,
                             false);
              }
            }
          } else {
            Status s = proc::VmExecuteOps(*ops, &vm, &access);
            PACMAN_CHECK(s.ok());
          }
          const double op_cost =
              cm.read_op * static_cast<double>(access.reads() - r0) +
              cm.write_op * static_cast<double>(access.writes() - w0);
          useful += op_cost;

          if (!dynamic) {
            // §4.2.1: without dynamic analysis the piece-set is executed
            // serially by its single owning thread.
            serial_time += op_cost;
            continue;
          }

          // List-schedule the piece onto this block's cores.
          const double dispatch =
              cm.SchedCost(total_threads) + cm.per_piece_coordination;
          sched += dispatch;
          double ready = barrier_time;
          if (resolved) {
            for (const auto& [table, key] : access_set) {
              auto it = key_finish.find(PackAccess(table, key));
              if (it != key_finish.end() && it->second > ready) {
                ready = it->second;
              }
            }
          } else {
            ready = max_finish;  // Conservative: after everything so far.
          }
          auto core_it =
              std::min_element(core_free.begin(), core_free.end());
          const double start = std::max(ready, *core_it);
          const double finish =
              start + cm.piece_param_check + dispatch + op_cost;
          *core_it = finish;
          if (resolved) {
            for (const auto& [table, key] : access_set) {
              key_finish[PackAccess(table, key)] = finish;
            }
          } else {
            barrier_time = finish;
          }
          if (finish > max_finish) max_finish = finish;
        }

        double makespan =
            (mode == PacmanMode::kStaticOnly ? serial_time : max_finish) +
            cm.pieceset_coordination;
        sched += cm.pieceset_coordination;
        counters->AddUseful(useful);
        counters->AddParamCheck(param);
        counters->AddScheduling(sched);
        counters->AddTuples(access.writes());
        return makespan;
      };

      // Worker tasks. The extra workers (c > 0) share the first worker's
      // dependencies and priority and have higher ids, so the simulated
      // machine always dispatches the first worker before them and they
      // return the makespan it stored. If that order ever broke, they
      // would return -1 and the machine's cost check would fail at once.
      // The thread runner ignores costs, so there they finish at once.
      sim::TaskId join = graph->AddTask(layout.cpu_group, batch.seq);
      for (uint32_t c = 0; c < cores; ++c) {
        std::function<double()> run = [computed] { return computed->load(); };
        if (c == 0) {
          run = [computed, run_piece_set] {
            const double makespan = run_piece_set();
            computed->store(makespan);
            return makespan;
          };
        }
        sim::TaskId w =
            graph->AddTask(layout.cpu_group, batch.seq, std::move(run));
        graph->AddEdge(deser, w);
        for (BlockId dep : gdg.blocks[k].deps) {
          graph->AddEdge(ps_tasks[dep], w);
        }
        if (mode == PacmanMode::kPipelined) {
          if (prev_ps[k] != sim::kInvalidTask) {
            graph->AddEdge(prev_ps[k], w);
          }
        } else if (prev_barrier != sim::kInvalidTask) {
          graph->AddEdge(prev_barrier, w);
        }
        graph->AddEdge(w, join);
      }
      ps_tasks[k] = join;
    }

    if (mode != PacmanMode::kPipelined) {
      // Synchronous execution: a barrier separates consecutive batches
      // (Fig. 9a).
      sim::TaskId barrier = graph->AddTask(layout.cpu_group, batch.seq);
      for (BlockId k = 0; k < num_blocks; ++k) {
        graph->AddEdge(ps_tasks[k], barrier);
      }
      prev_barrier = barrier;
    }
    prev_ps = ps_tasks;
  }
}

}  // namespace pacman::recovery
