#include "sim/task_graph.h"

namespace pacman::sim {

Work& Work::operator+=(const Work& o) {
  records += o.records;
  reads += o.reads;
  writes += o.writes;
  bytes_deserialized += o.bytes_deserialized;
  tuples_installed += o.tuples_installed;
  latched_writes += o.latched_writes;
  index_keys_rebuilt += o.index_keys_rebuilt;
  pieces += o.pieces;
  param_checks += o.param_checks;
  piece_sets += o.piece_sets;
  device_read_bytes += o.device_read_bytes;
  return *this;
}

void TaskWork::AddResolved(
    const Work& piece_work,
    const std::vector<std::pair<TableId, Key>>& access_set) {
  const auto id = static_cast<uint32_t>(pieces_.size());
  Piece& piece = pieces_.emplace_back(Piece{piece_work, false, {}});
  if (last_unresolved_ != std::numeric_limits<uint32_t>::max()) {
    piece.after.push_back(last_unresolved_);
  }
  for (const auto& [table, key] : access_set) {
    if (table >= last_on_key_.size()) last_on_key_.resize(table + 1);
    auto [it, inserted] = last_on_key_[table].emplace(key, id);
    if (!inserted && it->second != id) {  // A set may list a key twice.
      piece.after.push_back(it->second);
      it->second = id;
    }
  }
}

void TaskWork::AddUnresolved(const Work& piece_work) {
  last_unresolved_ = static_cast<uint32_t>(pieces_.size());
  pieces_.push_back(Piece{piece_work, /*after_all=*/true, {}});
}

Work TaskWork::Total() const {
  Work total = work;
  for (const Piece& p : pieces_) total += p.work;
  return total;
}

TaskId TaskGraph::AddTask(GroupId group, uint64_t priority,
                          std::function<TaskWork()> run, uint32_t cores) {
  PACMAN_DCHECK(cores >= 1);
  Task t;
  t.run = std::move(run);
  t.group = group;
  t.priority = priority;
  t.cores = cores;
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
