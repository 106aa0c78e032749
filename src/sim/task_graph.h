// Copyright (c) 2026 The PACMAN reproduction authors.
//
// Task graphs executed on the simulated multicore machine (sim::Machine).
//
// The paper's evaluation ran on a 40-core server; this reproduction runs on
// a single-core host. Recovery and logging work is therefore decomposed
// into tasks with calibrated virtual costs. The *side effects* of every
// task (actual index lookups, version installs, deserialization) run for
// real when the simulator dispatches the task, so correctness is fully
// exercised; only the clock is virtual. See README, "Layered
// architecture".
#ifndef PACMAN_SIM_TASK_GRAPH_H_
#define PACMAN_SIM_TASK_GRAPH_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/macros.h"

namespace pacman::sim {

using TaskId = uint32_t;
using GroupId = uint32_t;

inline constexpr TaskId kInvalidTask = std::numeric_limits<TaskId>::max();

// A unit of work: `cost` virtual seconds of exclusive use of one core in
// `group`, with real side effects in `work` executed when the task starts.
struct Task {
  double cost = 0.0;
  std::function<void()> work;  // May be empty (pure-cost task).
  // If set, runs instead of `work` when the task is dispatched and returns
  // the task's actual cost (overriding `cost`). PACMAN's piece-set tasks
  // use this: their internal parallel makespan is only computable once the
  // runtime parameter values of upstream piece-sets are available (§4.3).
  std::function<double()> dynamic_work;
  GroupId group = 0;
  // FIFO dispatch order within a group's ready queue; recovery uses the
  // transaction commit order so conflicting piece chains replay in order.
  uint64_t priority = 0;

  // Filled in by TaskGraph.
  std::vector<TaskId> dependents;
  uint32_t num_deps = 0;
};

// A DAG of tasks. Build once, execute once on a Machine.
class TaskGraph {
 public:
  TaskGraph() = default;
  PACMAN_DISALLOW_COPY(TaskGraph);
  TaskGraph(TaskGraph&&) = default;
  TaskGraph& operator=(TaskGraph&&) = default;

  // Adds a task and returns its id. Ids are dense and start at 0.
  TaskId AddTask(double cost, std::function<void()> work, GroupId group = 0,
                 uint64_t priority = 0);

  // Declares that `to` cannot start before `from` completes.
  void AddEdge(TaskId from, TaskId to);

  size_t NumTasks() const { return tasks_.size(); }
  const Task& task(TaskId id) const { return tasks_[id]; }
  Task& task(TaskId id) { return tasks_[id]; }

  // Sum of all task costs (the serial makespan, ignoring groups).
  double TotalCost() const;

 private:
  friend class Machine;
  std::vector<Task> tasks_;
};

}  // namespace pacman::sim

#endif  // PACMAN_SIM_TASK_GRAPH_H_
