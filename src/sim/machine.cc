#include "sim/machine.h"

#include <algorithm>
#include <queue>
#include <tuple>

namespace pacman::sim {

namespace {

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

double ListSchedule(const TaskWork& work, uint32_t cores,
                    const std::function<double(const Work&)>& price) {
  std::vector<double> core_free(cores, 0.0);
  std::vector<double> finish;
  double max_finish = 0.0;
  for (const TaskWork::Piece& p : work.pieces()) {
    double ready = p.after_all ? max_finish : 0.0;
    for (uint32_t a : p.after) ready = std::max(ready, finish[a]);
    auto core = std::min_element(core_free.begin(), core_free.end());
    *core = std::max(ready, *core) + price(p.work);
    finish.push_back(*core);
    max_finish = std::max(max_finish, *core);
  }
  return max_finish;
}

Machine::Machine(std::vector<uint32_t> cores_per_group, Pricer price)
    : cores_per_group_(std::move(cores_per_group)), price_(std::move(price)) {
  PACMAN_CHECK(!cores_per_group_.empty());
  for (uint32_t c : cores_per_group_) PACMAN_CHECK(c > 0);
}

double Machine::Run(TaskGraph& graph, std::vector<Work>* tally) {
  const size_t num_groups = cores_per_group_.size();
  if (tally != nullptr) tally->resize(std::max(tally->size(), num_groups));
  std::vector<std::priority_queue<ReadyEntry, std::vector<ReadyEntry>,
                                  std::greater<ReadyEntry>>>
      ready(num_groups);
  std::vector<uint32_t> idle_cores(cores_per_group_);
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;

  // A task is ready once its dependencies are done; each replica then
  // queues on its own, and the task is done when its last replica is.
  std::vector<uint32_t> deps_left(graph.NumTasks());
  std::vector<uint32_t> undispatched(graph.NumTasks());
  std::vector<uint32_t> replicas_left(graph.NumTasks());
  std::vector<double> seconds(graph.NumTasks());
  auto make_ready = [&](TaskId id) {
    const Task& t = graph.task(id);
    undispatched[id] = replicas_left[id] = t.cores;
    for (uint32_t r = 0; r < t.cores; ++r) {
      ready[t.group].push({t.priority, id});
    }
  };
  for (TaskId i = 0; i < graph.NumTasks(); ++i) {
    const Task& t = graph.task(i);
    PACMAN_CHECK(t.group < num_groups);
    deps_left[i] = t.num_deps;
    if (t.num_deps == 0) make_ready(i);
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
      if (undispatched[id]-- == t.cores) {  // The first replica runs it.
        const TaskWork work = t.run ? t.run() : TaskWork();
        auto price = [&](const Work& w) { return price_(g, w); };
        seconds[id] = price(work.work) / t.cores +
                      ListSchedule(work, t.cores, price);
        PACMAN_CHECK(seconds[id] >= 0.0);
        if (tally != nullptr) (*tally)[g] += work.Total();
      }
      events.push({now + seconds[id], seq++, id, g});
    }
  };

  for (GroupId g = 0; g < num_groups; ++g) dispatch_group(g);

  while (!events.empty()) {
    Event e = events.top();
    events.pop();
    now = e.time;
    idle_cores[e.group]++;
    if (--replicas_left[e.id] == 0) {
      completed++;
      for (TaskId dep : graph.task(e.id).dependents) {
        PACMAN_DCHECK(deps_left[dep] > 0);
        if (--deps_left[dep] == 0) make_ready(dep);
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
