#include "sim/machine.h"

#include <queue>
#include <tuple>

namespace pacman::sim {

namespace {

// Ready-queue entry ordered by (priority, task id) ascending.
struct ReadyEntry {
  uint64_t priority;
  TaskId id;
  bool operator>(const ReadyEntry& o) const {
    return std::tie(priority, id) > std::tie(o.priority, o.id);
  }
};

// Completion event ordered by (time, sequence) ascending.
struct Event {
  double time;
  uint64_t seq;
  TaskId id;
  GroupId group;
  bool operator>(const Event& o) const {
    return std::tie(time, seq) > std::tie(o.time, o.seq);
  }
};

}  // namespace

Machine::Machine(MachineConfig config) : config_(std::move(config)) {
  PACMAN_CHECK(!config_.cores_per_group.empty());
  for (uint32_t c : config_.cores_per_group) PACMAN_CHECK(c > 0);
}

double Machine::Run(TaskGraph& graph) {
  const size_t num_groups = config_.cores_per_group.size();
  std::vector<std::priority_queue<ReadyEntry, std::vector<ReadyEntry>,
                                  std::greater<ReadyEntry>>>
      ready(num_groups);
  std::vector<uint32_t> idle_cores(config_.cores_per_group);
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;

  std::vector<uint32_t> deps_left(graph.NumTasks());
  for (TaskId i = 0; i < graph.NumTasks(); ++i) {
    const Task& t = graph.task(i);
    PACMAN_CHECK(t.group < num_groups);
    deps_left[i] = t.num_deps;
    if (t.num_deps == 0) ready[t.group].push({t.priority, i});
  }

  double now = 0.0;
  uint64_t seq = 0;
  size_t completed = 0;

  auto dispatch_group = [&](GroupId g) {
    while (idle_cores[g] > 0 && !ready[g].empty()) {
      TaskId id = ready[g].top().id;
      ready[g].pop();
      idle_cores[g]--;
      const Task& t = graph.task(id);
      const double cost = t.run ? t.run() : 0.0;
      PACMAN_CHECK(cost >= 0.0);
      events.push({now + cost, seq++, id, g});
    }
  };

  for (GroupId g = 0; g < num_groups; ++g) dispatch_group(g);

  while (!events.empty()) {
    Event e = events.top();
    events.pop();
    now = e.time;
    idle_cores[e.group]++;
    completed++;
    for (TaskId dep : graph.task(e.id).dependents) {
      PACMAN_DCHECK(deps_left[dep] > 0);
      if (--deps_left[dep] == 0) {
        ready[graph.task(dep).group].push({graph.task(dep).priority, dep});
      }
    }
    // Dispatch the completing task's group and any group that may have
    // received new ready tasks. Dispatching all groups is O(groups) per
    // event, which is fine for the group counts we use (< 64).
    for (GroupId g = 0; g < num_groups; ++g) dispatch_group(g);
  }

  PACMAN_CHECK(completed == graph.NumTasks());  // Acyclic & all groups valid.
  return now;
}

}  // namespace pacman::sim
