// Copyright (c) 2026 The PACMAN reproduction authors.
//
// Task graphs: the one schedule form of recovery, run either on the
// simulated multicore machine (sim::Machine) or on real threads
// (exec::RunTaskGraph).
//
// The paper's evaluation ran on a 40-core server; this reproduction runs on
// a small host. Recovery and logging work is therefore decomposed into
// tasks. Each task's callback does the task's real work (index lookups,
// version installs, deserialization) and returns it counted (Work): the
// simulator prices it at dispatch with a calibrated cost model and charges
// the seconds to the task's cores, the thread runner only adds it up.
// Both count the same work; only the simulator's clock is virtual. See
// README, "Layered architecture".
#ifndef PACMAN_SIM_TASK_GRAPH_H_
#define PACMAN_SIM_TASK_GRAPH_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/types.h"

namespace pacman::sim {

using TaskId = uint32_t;
using GroupId = uint32_t;

inline constexpr TaskId kInvalidTask = std::numeric_limits<TaskId>::max();

// Work a task did, counted. recovery::CostModel::Price turns it into
// virtual seconds; a count is never priced anywhere else.
struct Work {
  uint64_t records = 0;             // Log records replayed.
  uint64_t reads = 0;               // Procedure reads re-executed.
  uint64_t writes = 0;              // Tuple writes replayed.
  uint64_t bytes_deserialized = 0;  // Log and checkpoint bytes parsed.
  uint64_t tuples_installed = 0;    // Checkpoint tuples restored.
  uint64_t latched_writes = 0;      // Writes installed under a tuple latch.
  uint64_t index_keys_rebuilt = 0;  // Keys of a deferred index rebuild.
  uint64_t pieces = 0;              // Pieces dispatched (§4.3).
  uint64_t param_checks = 0;        // Pieces' access sets computed.
  uint64_t piece_sets = 0;          // Piece-sets activated (§4.2.1).
  uint64_t device_read_bytes = 0;   // Bytes read from the group's device.

  Work& operator+=(const Work& o);
  bool operator==(const Work&) const = default;
};

// What a task's run returns: its counted work and, for a multi-core task
// (CLR-P's piece-set, §4.3), the pieces it ran, in order, as a DAG. A
// piece whose (table, key) access set is known follows the last earlier
// piece on each of those keys and the last piece whose set was not known;
// a piece whose set is not known follows every earlier piece.
class TaskWork {
 public:
  struct Piece {
    Work work;
    bool after_all = false;       // Follows every earlier piece; else
    std::vector<uint32_t> after;  // the earlier pieces it follows.
  };

  TaskWork(Work w = {}) : work(w) {}  // NOLINT: a plain task returns Work.
  void AddResolved(const Work& piece_work,
                   const std::vector<std::pair<TableId, Key>>& access_set);
  void AddUnresolved(const Work& piece_work);
  const std::vector<Piece>& pieces() const { return pieces_; }
  Work Total() const;  // `work` plus every piece's.

  Work work;  // Spread evenly over the task's cores.

 private:
  std::vector<Piece> pieces_;
  // By table id, then key: the last resolved piece on that key.
  std::vector<std::unordered_map<Key, uint32_t>> last_on_key_;
  uint32_t last_unresolved_ = std::numeric_limits<uint32_t>::max();
};

// A unit of work on `cores` cores of `group`.
struct Task {
  // Does the task's work when it is dispatched and returns it, counted.
  // Piece-set tasks record their pieces only then, from the runtime
  // parameter values of upstream piece-sets (§4.3). Empty: a task with no
  // work (a join, a barrier). Called once on either backend.
  std::function<TaskWork()> run;
  GroupId group = 0;
  // FIFO dispatch order within a group's ready queue; recovery uses the
  // transaction commit order so conflicting piece chains replay in order.
  uint64_t priority = 0;
  // The simulator dispatches this many replicas, each on a core as one
  // frees up, charging each the task's seconds; dependents wait for all.
  uint32_t cores = 1;

  // Filled in by TaskGraph.
  std::vector<TaskId> dependents;
  uint32_t num_deps = 0;
};

// Both backends dispatch ready tasks in (priority, task id) order.
struct ReadyEntry {
  uint64_t priority;
  TaskId id;
  bool operator>(const ReadyEntry& o) const {
    return std::tie(priority, id) > std::tie(o.priority, o.id);
  }
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
                 std::function<TaskWork()> run = nullptr,
                 uint32_t cores = 1);

  // Declares that `to` cannot start before `from` completes.
  void AddEdge(TaskId from, TaskId to);

  size_t NumTasks() const { return tasks_.size(); }
  const Task& task(TaskId id) const { return tasks_[id]; }

 private:
  std::vector<Task> tasks_;
};

}  // namespace pacman::sim

#endif  // PACMAN_SIM_TASK_GRAPH_H_
