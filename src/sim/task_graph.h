// Copyright (c) 2026 The PACMAN reproduction authors.
//
// Task graphs: the one schedule form of recovery, run either on the
// simulated multicore machine (sim::Machine) or on real threads
// (exec::RunTaskGraph).
//
// The paper's evaluation ran on a 40-core server; this reproduction runs on
// a small host. Recovery and logging work is therefore decomposed into
// tasks with calibrated virtual costs. Each task's callback does the task's
// real work (index lookups, version installs, deserialization) and returns
// its virtual seconds: the simulator charges that cost to a core, the
// thread runner ignores it. Correctness is exercised by both; only the
// simulator's clock is virtual. See README, "Layered architecture".
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

// A unit of work on one core of `group`.
struct Task {
  // Does the task's work when it is dispatched and returns its virtual
  // seconds (>= 0). Piece-set tasks compute theirs only then, from the
  // runtime parameter values of upstream piece-sets (§4.3). Empty: a
  // zero-cost task (a join, a barrier).
  std::function<double()> run;
  GroupId group = 0;
  // FIFO dispatch order within a group's ready queue; recovery uses the
  // transaction commit order so conflicting piece chains replay in order.
  uint64_t priority = 0;

  // Filled in by TaskGraph.
  std::vector<TaskId> dependents;
  uint32_t num_deps = 0;
};

// A DAG of tasks. Build once, execute once.
class TaskGraph {
 public:
  TaskGraph() = default;
  PACMAN_DISALLOW_COPY(TaskGraph);
  TaskGraph(TaskGraph&&) = default;
  TaskGraph& operator=(TaskGraph&&) = default;

  // Adds a task and returns its id. Ids are dense and start at 0.
  TaskId AddTask(GroupId group, uint64_t priority,
                 std::function<double()> run = nullptr);

  // Declares that `to` cannot start before `from` completes.
  void AddEdge(TaskId from, TaskId to);

  size_t NumTasks() const { return tasks_.size(); }
  const Task& task(TaskId id) const { return tasks_[id]; }

 private:
  std::vector<Task> tasks_;
};

}  // namespace pacman::sim

#endif  // PACMAN_SIM_TASK_GRAPH_H_
