#include "sim/task_graph.h"

namespace pacman::sim {

TaskId TaskGraph::AddTask(GroupId group, uint64_t priority,
                          std::function<double()> run) {
  Task t;
  t.run = std::move(run);
  t.group = group;
  t.priority = priority;
  tasks_.push_back(std::move(t));
  return static_cast<TaskId>(tasks_.size() - 1);
}

void TaskGraph::AddEdge(TaskId from, TaskId to) {
  PACMAN_DCHECK(from < tasks_.size() && to < tasks_.size());
  PACMAN_DCHECK(from != to);
  tasks_[from].dependents.push_back(to);
  tasks_[to].num_deps++;
}

}  // namespace pacman::sim
