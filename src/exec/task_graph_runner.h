// Copyright (c) 2026 The PACMAN reproduction authors.
// Real-thread execution of sim::TaskGraph DAGs on the shared thread pool.
//
// Database::Recover runs a recovery graph either on the simulated machine
// (sim::Machine), for virtual-time results, or here, for real. Both
// respect the graph's dependency edges, call each task's `run` once and
// add up the work it returns; this runner prices nothing and maps all
// groups onto one shared pool (group capacities and task core counts are
// a performance-model concern, not a correctness one). Ready tasks are
// dispatched in (priority, id) order, which recovery uses to replay
// conflicting piece chains in commit order.
#ifndef PACMAN_EXEC_TASK_GRAPH_RUNNER_H_
#define PACMAN_EXEC_TASK_GRAPH_RUNNER_H_

#include <cstdint>
#include <vector>

#include "exec/thread_pool.h"
#include "sim/task_graph.h"

namespace pacman::exec {

// Executes all tasks of `graph` on the workers of `pool`, honoring
// dependency edges. Returns the wall-clock seconds spent. Adds each task's
// total work to (*tally)[group], if set, as sim::Machine does. The pool
// is quiescent again when this returns.
double RunTaskGraph(sim::TaskGraph* graph, ThreadPool* pool,
                    std::vector<sim::Work>* tally = nullptr);

}  // namespace pacman::exec

#endif  // PACMAN_EXEC_TASK_GRAPH_RUNNER_H_
