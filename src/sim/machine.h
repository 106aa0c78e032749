// Copyright (c) 2026 The PACMAN reproduction authors.
//
// Deterministic discrete-event simulator of a multicore machine with
// grouped cores. Groups model (a) PACMAN's per-block core assignment
// (Section 4.4 / Fig. 10) and (b) serial hardware resources such as SSDs
// (a device is a group with one core). Tasks return the work they
// counted, and the machine prices it (recovery::CostModel::Price).
#ifndef PACMAN_SIM_MACHINE_H_
#define PACMAN_SIM_MACHINE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/macros.h"
#include "sim/task_graph.h"

namespace pacman::sim {

// Virtual seconds of `work` done on a core of `group`.
using Pricer = std::function<double(GroupId group, const Work& work)>;

// List-schedules `work`'s pieces, in order, each on the earliest-free of
// `cores` cores once its predecessors finish. Returns the makespan.
double ListSchedule(const TaskWork& work, uint32_t cores,
                    const std::function<double(const Work&)>& price);

// Executes a TaskGraph to completion; returns the virtual-time makespan.
// Dispatch is deterministic: ready tasks are ordered by (priority, task id)
// within each group, and simultaneous events tie-break on sequence number.
class Machine {
 public:
  // `cores_per_group` gives each group's core count; a task's group id
  // indexes it.
  Machine(std::vector<uint32_t> cores_per_group, Pricer price);
  PACMAN_DISALLOW_COPY_AND_MOVE(Machine);

  // Runs the graph and returns its makespan in virtual seconds. Each
  // replica of a task occupies a core of its group for the task's seconds:
  // its own work priced and spread over its cores, plus the ListSchedule
  // makespan of its pieces. With `tally`, each task's total work is added
  // to (*tally)[group]. PACMAN_CHECKs that all tasks complete (the graph
  // is acyclic and group ids are in range) and no cost is negative.
  double Run(TaskGraph& graph, std::vector<Work>* tally = nullptr);

 private:
  std::vector<uint32_t> cores_per_group_;
  Pricer price_;
};

}  // namespace pacman::sim

#endif  // PACMAN_SIM_MACHINE_H_
