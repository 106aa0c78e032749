// Copyright (c) 2026 The PACMAN reproduction authors.
//
// Deterministic discrete-event simulator of a multicore machine with
// grouped cores. Groups model (a) PACMAN's per-block core assignment
// (Section 4.4 / Fig. 10) and (b) serial hardware resources such as SSDs
// (a device is a group with one core whose task costs are bytes/bandwidth).
#ifndef PACMAN_SIM_MACHINE_H_
#define PACMAN_SIM_MACHINE_H_

#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "sim/task_graph.h"

namespace pacman::sim {

// Static machine description: one entry per group giving its core count.
// Group ids used by tasks index into this vector.
struct MachineConfig {
  std::vector<uint32_t> cores_per_group;

  // Convenience: a machine with a single group of `n` interchangeable cores.
  static MachineConfig Uniform(uint32_t n) { return MachineConfig{{n}}; }
};

// Executes a TaskGraph to completion; returns the virtual-time makespan.
// Dispatch is deterministic: ready tasks are ordered by (priority, task id)
// within each group, and simultaneous events tie-break on sequence number.
class Machine {
 public:
  explicit Machine(MachineConfig config);
  PACMAN_DISALLOW_COPY_AND_MOVE(Machine);

  // Runs the graph and returns its makespan in virtual seconds. Each task
  // occupies a core of its group for the seconds its `run` returns. All
  // tasks must complete (the graph must be acyclic and every group id must
  // be < number of groups), and no task may return a negative cost;
  // PACMAN_CHECKs otherwise.
  double Run(TaskGraph& graph);

 private:
  MachineConfig config_;
};

}  // namespace pacman::sim

#endif  // PACMAN_SIM_MACHINE_H_
