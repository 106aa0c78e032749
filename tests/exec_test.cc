// Tests for the shared execution layer: thread pool semantics,
// quiescence, and task-graph execution on real threads — dependency
// order, priority dispatch, and reuse of one pool across graphs.
#include "exec/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "common/random.h"
#include "exec/task_graph_runner.h"
#include "sim/task_graph.h"

namespace pacman::exec {
namespace {

TEST(ThreadPoolTest, RunsAllSubmittedJobs) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&] { count.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&] { count.fetch_add(1); });
    }
  }
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, JobsMaySubmitJobs) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&] {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&] { count.fetch_add(1); });
    }
  });
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 10);
}

TEST(TaskGraphRunnerTest, PoolIsReusableAcrossGraphs) {
  ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    sim::TaskGraph g;
    std::atomic<int> count{0};
    auto bump = [&] {
      count.fetch_add(1);
      return sim::Work();
    };
    sim::TaskId prev = g.AddTask(0, 0, bump);
    for (int i = 1; i < 50; ++i) {
      sim::TaskId t = g.AddTask(0, 0, bump);
      if (i % 2 == 0) g.AddEdge(prev, t);
      prev = t;
    }
    double seconds = RunTaskGraph(&g, &pool);
    EXPECT_GE(seconds, 0.0);
    EXPECT_EQ(count.load(), 50);
  }
}

TEST(TaskGraphRunnerTest, EmptyGraphCompletes) {
  sim::TaskGraph g;
  ThreadPool pool(2);
  EXPECT_GE(RunTaskGraph(&g, &pool), 0.0);
}

TEST(TaskGraphRunnerTest, RunsEveryTaskExactlyOnce) {
  sim::TaskGraph g;
  const int n = 500;
  std::vector<std::atomic<int>> runs(n);
  for (auto& r : runs) r.store(0);
  for (int i = 0; i < n; ++i) {
    g.AddTask(0, 0, [&runs, i] {
      runs[i].fetch_add(1);
      return sim::Work();
    });
  }
  ThreadPool pool(4);
  RunTaskGraph(&g, &pool);
  for (int i = 0; i < n; ++i) EXPECT_EQ(runs[i].load(), 1) << "task " << i;
}

// The runner prices nothing: it adds up the work `run` returns, pieces
// included, by group, as the simulator does; an empty `run` is a join with
// nothing to call.
TEST(TaskGraphRunnerTest, AddsUpTheWorkRunReturns) {
  sim::TaskGraph g;
  std::atomic<int> calls{0};
  sim::TaskId a = g.AddTask(0, 0, [&] {
    calls.fetch_add(1);
    return sim::Work{.reads = 2};
  });
  sim::TaskId b = g.AddTask(1, 0, [&] {
    calls.fetch_add(1);
    sim::TaskWork work(sim::Work{.piece_sets = 1});
    work.AddUnresolved(sim::Work{.reads = 3, .pieces = 1});
    return work;
  });
  sim::TaskId join = g.AddTask(0, 0);
  std::atomic<bool> tail_ran{false};
  sim::TaskId tail = g.AddTask(0, 0, [&] {
    EXPECT_EQ(calls.load(), 2);
    tail_ran.store(true);
    return sim::Work();
  });
  g.AddEdge(a, join);
  g.AddEdge(b, join);
  g.AddEdge(join, tail);
  std::vector<sim::Work> tally(2);
  ThreadPool pool(2);
  EXPECT_GE(RunTaskGraph(&g, &pool, &tally), 0.0);
  EXPECT_EQ(calls.load(), 2);
  EXPECT_TRUE(tail_ran.load());
  EXPECT_EQ(tally, (std::vector<sim::Work>{
                       sim::Work{.reads = 2},
                       sim::Work{.reads = 3, .pieces = 1, .piece_sets = 1}}));
}

// A task on several cores is one task here: `run` is called once, and its
// dependents follow that one call.
TEST(TaskGraphRunnerTest, MultiCoreTaskRunsOnce) {
  sim::TaskGraph g;
  std::atomic<int> calls{0};
  sim::TaskId wide = g.AddTask(
      0, 0,
      [&] {
        calls.fetch_add(1);
        return sim::Work();
      },
      /*cores=*/8);
  sim::TaskId after = g.AddTask(0, 0, [&] {
    EXPECT_EQ(calls.load(), 1);
    return sim::Work();
  });
  g.AddEdge(wide, after);
  ThreadPool pool(4);
  RunTaskGraph(&g, &pool);
  EXPECT_EQ(calls.load(), 1);
}

TEST(TaskGraphRunnerTest, RespectsDependencyOrder) {
  sim::TaskGraph g;
  std::atomic<int> stage{0};
  auto advance = [&](int from) {
    return [&stage, from] {
      int expected = from;
      EXPECT_TRUE(stage.compare_exchange_strong(expected, from + 1));
      return sim::Work();
    };
  };
  sim::TaskId a = g.AddTask(0, 0, advance(0));
  sim::TaskId b = g.AddTask(0, 0, advance(1));
  sim::TaskId c = g.AddTask(0, 0, advance(2));
  g.AddEdge(a, b);
  g.AddEdge(b, c);
  ThreadPool pool(8);
  RunTaskGraph(&g, &pool);
  EXPECT_EQ(stage.load(), 3);
}

TEST(TaskGraphRunnerTest, RandomDagsCompleteInTopologicalOrder) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    sim::TaskGraph g;
    const int n = 200;
    std::vector<std::atomic<bool>> done(n);
    for (auto& d : done) d.store(false);
    std::vector<std::vector<sim::TaskId>> deps(n);
    for (int i = 0; i < n; ++i) {
      // Random backward edges keep the graph acyclic.
      int ndeps = static_cast<int>(rng.Uniform(0, 3));
      for (int k = 0; k < ndeps && i > 0; ++k) {
        deps[i].push_back(static_cast<sim::TaskId>(rng.Uniform(0, i - 1)));
      }
    }
    for (int i = 0; i < n; ++i) {
      std::vector<sim::TaskId> my_deps = deps[i];
      sim::TaskId t = g.AddTask(0, 0, [&done, my_deps, i] {
        for (sim::TaskId d : my_deps) {
          EXPECT_TRUE(done[d].load()) << "dep ran after dependent";
        }
        done[i].store(true);
        return sim::Work();
      });
      for (sim::TaskId d : deps[i]) g.AddEdge(d, t);
      ASSERT_EQ(t, static_cast<sim::TaskId>(i));
    }
    ThreadPool pool(1 + trial % 4);
    RunTaskGraph(&g, &pool);
    for (auto& d : done) EXPECT_TRUE(d.load());
  }
}

TEST(TaskGraphRunnerTest, SingleThreadFollowsPriorityOrder) {
  sim::TaskGraph g;
  std::vector<int> order;
  auto record = [&order](int i) {
    return [&order, i] {
      order.push_back(i);
      return sim::Work();
    };
  };
  g.AddTask(0, /*priority=*/9, record(0));
  g.AddTask(0, /*priority=*/1, record(1));
  g.AddTask(0, /*priority=*/5, record(2));
  ThreadPool pool(1);
  RunTaskGraph(&g, &pool);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
}

}  // namespace
}  // namespace pacman::exec
