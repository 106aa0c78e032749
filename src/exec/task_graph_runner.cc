#include "exec/task_graph_runner.h"

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <queue>
#include <tuple>
#include <vector>

#include "common/macros.h"

namespace pacman::exec {

namespace {

struct ReadyEntry {
  uint64_t priority;
  sim::TaskId id;
  bool operator>(const ReadyEntry& o) const {
    return std::tie(priority, id) > std::tie(o.priority, o.id);
  }
};

// Bookkeeping shared by the graph-worker jobs of one run. Heap-allocated
// and owned via shared_ptr so a worker draining its exit path can never
// outlive the state it references.
struct RunState {
  std::mutex mu;
  std::condition_variable cv;
  std::priority_queue<ReadyEntry, std::vector<ReadyEntry>,
                      std::greater<ReadyEntry>>
      ready;
  std::vector<uint32_t> deps_left;
  size_t completed = 0;
  uint32_t workers_exited = 0;
};

}  // namespace

double RunTaskGraph(sim::TaskGraph* graph, ThreadPool* pool) {
  const size_t n = graph->NumTasks();
  const uint32_t num_workers = pool->size();

  auto state = std::make_shared<RunState>();
  state->deps_left.resize(n);
  for (sim::TaskId i = 0; i < n; ++i) {
    state->deps_left[i] = graph->task(i).num_deps;
    if (state->deps_left[i] == 0) {
      state->ready.push({graph->task(i).priority, i});
    }
  }

  auto start = std::chrono::steady_clock::now();
  auto graph_worker = [state, graph, n]() {
    std::unique_lock<std::mutex> lock(state->mu);
    while (true) {
      state->cv.wait(lock, [&] {
        return !state->ready.empty() || state->completed == n;
      });
      if (state->completed == n && state->ready.empty()) break;
      if (state->ready.empty()) continue;
      sim::TaskId id = state->ready.top().id;
      state->ready.pop();
      lock.unlock();

      const sim::Task& t = graph->task(id);
      if (t.run) t.run();  // Virtual seconds are the simulator's concern.

      lock.lock();
      state->completed++;
      for (sim::TaskId dep : t.dependents) {
        if (--state->deps_left[dep] == 0) {
          state->ready.push({graph->task(dep).priority, dep});
        }
      }
      state->cv.notify_all();
    }
    state->workers_exited++;
    state->cv.notify_all();
  };

  for (uint32_t i = 0; i < num_workers; ++i) pool->Submit(graph_worker);
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] { return state->workers_exited == num_workers; });
    PACMAN_CHECK(state->completed == n);
  }
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

double RunTaskGraph(sim::TaskGraph* graph, uint32_t num_threads) {
  PACMAN_CHECK(num_threads >= 1);
  ThreadPool pool(num_threads);
  return RunTaskGraph(graph, &pool);
}

}  // namespace pacman::exec
