// Copyright (c) 2026 The PACMAN reproduction authors.
// Real-thread execution of sim::TaskGraph DAGs on the shared thread pool.
//
// Database::Recover runs a recovery graph either on the simulated machine
// (sim::Machine), for virtual-time results, or here, for real. Both
// respect the graph's dependency edges and call each task's `run` once;
// this runner ignores the virtual seconds `run` returns and maps all
// groups onto one shared pool (group capacities are a performance-model
// concern, not a correctness one). Ready tasks are dispatched in
// (priority, id) order, which recovery uses to replay conflicting piece
// chains in commit order.
#ifndef PACMAN_EXEC_TASK_GRAPH_RUNNER_H_
#define PACMAN_EXEC_TASK_GRAPH_RUNNER_H_

#include <cstdint>

#include "exec/thread_pool.h"
#include "sim/task_graph.h"

namespace pacman::exec {

// Executes all tasks of `graph` on the workers of `pool`, honoring
// dependency edges. Returns the wall-clock seconds spent. The pool is
// quiescent again when this returns.
double RunTaskGraph(sim::TaskGraph* graph, ThreadPool* pool);

// Convenience: runs on a private pool of `num_threads` workers.
double RunTaskGraph(sim::TaskGraph* graph, uint32_t num_threads);

}  // namespace pacman::exec

#endif  // PACMAN_EXEC_TASK_GRAPH_RUNNER_H_
