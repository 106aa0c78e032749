// Tests for the discrete-event multicore machine and its list scheduler.
#include "sim/machine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "sim/task_graph.h"

namespace pacman::sim {
namespace {

// The tests price work at one virtual second per counted read.
double PerRead(const Work& w) { return static_cast<double>(w.reads); }
Work Seconds(uint64_t s) { return Work{.reads = s}; }
Machine MakeMachine(std::vector<uint32_t> cores_per_group) {
  return Machine(std::move(cores_per_group),
                 [](GroupId, const Work& w) { return PerRead(w); });
}

// A task that occupies one core of `group` for `cost` virtual seconds.
TaskId AddCost(TaskGraph* g, uint64_t cost, GroupId group = 0,
               uint64_t priority = 0) {
  return g->AddTask(group, priority, [cost] { return Seconds(cost); });
}

TEST(MachineTest, SerialChainTakesSumOfCosts) {
  TaskGraph g;
  TaskId a = AddCost(&g, 1);
  TaskId b = AddCost(&g, 2);
  TaskId c = AddCost(&g, 3);
  g.AddEdge(a, b);
  g.AddEdge(b, c);
  Machine m = MakeMachine({4});
  EXPECT_DOUBLE_EQ(m.Run(g), 6.0);
}

TEST(MachineTest, IndependentTasksRunInParallel) {
  TaskGraph g;
  for (int i = 0; i < 8; ++i) AddCost(&g, 1);
  Machine m4 = MakeMachine({4});
  EXPECT_DOUBLE_EQ(m4.Run(g), 2.0);

  TaskGraph g2;
  for (int i = 0; i < 8; ++i) AddCost(&g2, 1);
  Machine m1 = MakeMachine({1});
  EXPECT_DOUBLE_EQ(m1.Run(g2), 8.0);
}

TEST(MachineTest, WorkRunsExactlyOnceInDependencyOrder) {
  TaskGraph g;
  std::vector<int> order;
  auto record = [&](int i) {
    return [&order, i] {
      order.push_back(i);
      return Seconds(1);
    };
  };
  TaskId a = g.AddTask(0, 0, record(1));
  TaskId b = g.AddTask(0, 0, record(2));
  TaskId c = g.AddTask(0, 0, record(3));
  g.AddEdge(a, b);
  g.AddEdge(a, c);
  Machine m = MakeMachine({1});
  m.Run(g);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  // b before c: same priority, lower task id wins deterministically.
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 3);
}

TEST(MachineTest, PriorityBreaksTies) {
  TaskGraph g;
  std::vector<int> order;
  g.AddTask(0, /*priority=*/5, [&] {
    order.push_back(1);
    return Seconds(1);
  });
  g.AddTask(0, /*priority=*/1, [&] {
    order.push_back(2);
    return Seconds(1);
  });
  Machine m = MakeMachine({1});
  m.Run(g);
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(MachineTest, GroupsAreIsolatedResources) {
  // Group 0 has 1 core, group 1 has 2 cores. Three unit tasks per group.
  TaskGraph g;
  for (int i = 0; i < 3; ++i) AddCost(&g, 1, 0);
  for (int i = 0; i < 3; ++i) AddCost(&g, 1, 1);
  Machine m = MakeMachine({1, 2});
  // Group 0 is the bottleneck; one pool of three cores would take 2.0.
  EXPECT_DOUBLE_EQ(m.Run(g), 3.0);
}

TEST(MachineTest, ChargesWhatRunReturnsAtDispatch) {
  // The work is known only when the task runs: here it depends on state
  // its predecessor set, as a piece-set's depends on upstream parameters.
  TaskGraph g;
  uint64_t upstream = 0;
  TaskId a = g.AddTask(0, 0, [&] {
    upstream = 2;
    return Seconds(1);
  });
  TaskId b = g.AddTask(0, 0, [&] { return Seconds(upstream); });
  TaskId c = g.AddTask(0, 0);  // Empty run: a join with no work.
  g.AddEdge(a, b);
  g.AddEdge(b, c);
  Machine m = MakeMachine({1});
  std::vector<Work> tally;
  EXPECT_DOUBLE_EQ(m.Run(g, &tally), 3.0);
  // The tally holds each task's work, by group.
  ASSERT_EQ(tally.size(), 1u);
  EXPECT_EQ(tally[0], Seconds(3));
}

TEST(MachineDeathTest, NegativeCostDies) {
  TaskGraph g;
  g.AddTask(0, 0, [] { return Seconds(1); });
  Machine m({1}, [](GroupId, const Work&) { return -1.0; });
  EXPECT_DEATH(m.Run(g), ">= 0");
}

TEST(MachineTest, DiamondDependency) {
  // a -> {b, c} -> d on 2 cores: 1 + 2 + 1.
  TaskGraph g;
  TaskId a = AddCost(&g, 1);
  TaskId b = AddCost(&g, 2);
  TaskId c = AddCost(&g, 2);
  TaskId d = AddCost(&g, 1);
  g.AddEdge(a, b);
  g.AddEdge(a, c);
  g.AddEdge(b, d);
  g.AddEdge(c, d);
  Machine m = MakeMachine({2});
  EXPECT_DOUBLE_EQ(m.Run(g), 4.0);
}

// A task on several cores: the machine dispatches one replica per core,
// each as a core frees up, runs the task once and charges every replica
// its seconds; dependents wait for the last replica.
TEST(MachineTest, MultiCoreTaskOccupiesItsCoresAndRunsOnce) {
  TaskGraph g;
  int runs = 0;
  // One core is busy for 3 s first, so the task's third replica waits for
  // a core. Its own 6 s of work spread over 3 cores: 2 s a replica.
  AddCost(&g, 3, 0, /*priority=*/0);
  TaskId wide = g.AddTask(
      0, /*priority=*/1,
      [&] {
        ++runs;
        return Seconds(6);
      },
      /*cores=*/3);
  TaskId after = AddCost(&g, 1, 0, /*priority=*/2);
  g.AddEdge(wide, after);
  Machine m = MakeMachine({3});
  std::vector<Work> tally;
  // Replicas run [0,2), [0,2) and, on the first core to free up, [2,4);
  // `after` waits for the last of them: [4,5).
  EXPECT_DOUBLE_EQ(m.Run(g, &tally), 5.0);
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(tally[0], Seconds(3 + 6 + 1));
}

TEST(MachineTest, MultiCoreTaskIsChargedItsPiecesMakespan) {
  // Two cores; the task's pieces are two independent 2 s pieces and a
  // 1 s piece after both, so each replica is charged 3 s. The 2 s task
  // queued behind it finds no free core until then.
  TaskGraph g;
  g.AddTask(
      0, 0,
      [] {
        TaskWork work;
        work.AddResolved(Seconds(2), {{0, 1}});
        work.AddResolved(Seconds(2), {{0, 2}});
        work.AddUnresolved(Seconds(1));
        return work;
      },
      /*cores=*/2);
  AddCost(&g, 2, 0, /*priority=*/1);
  Machine m = MakeMachine({2});
  EXPECT_DOUBLE_EQ(m.Run(g), 5.0);
}

// Property sweep: on random DAGs the makespan must lie between the
// theoretical bounds, collapse to the serial sum on one core, and execute
// every side effect exactly once in dependency order.
class MachinePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MachinePropertyTest, MakespanBoundsOnRandomDags) {
  pacman::Rng rng(GetParam());
  const int n = 120;
  TaskGraph g;
  std::vector<uint64_t> costs(n);
  std::vector<std::vector<TaskId>> deps(n);
  std::vector<int> ran(n, 0);
  std::vector<double> finish_bound(n, 0.0);
  for (int i = 0; i < n; ++i) {
    costs[i] = rng.Uniform(1, 10);
    int ndeps = static_cast<int>(rng.Uniform(0, 2));
    for (int k = 0; k < ndeps && i > 0; ++k) {
      deps[i].push_back(static_cast<TaskId>(rng.Uniform(0, i - 1)));
    }
  }
  for (int i = 0; i < n; ++i) {
    std::vector<TaskId> my_deps = deps[i];
    TaskId t = g.AddTask(0, 0, [&ran, my_deps, i, cost = costs[i]] {
      ran[i]++;
      for (TaskId d : my_deps) EXPECT_EQ(ran[d], 1);
      return Seconds(cost);
    });
    for (TaskId d : deps[i]) g.AddEdge(d, t);
  }
  // Critical path (longest cost chain) lower bound.
  for (int i = 0; i < n; ++i) {
    double start = 0.0;
    for (TaskId d : deps[i]) start = std::max(start, finish_bound[d]);
    finish_bound[i] = start + static_cast<double>(costs[i]);
  }
  double critical_path = 0.0, total = 0.0;
  for (int i = 0; i < n; ++i) {
    critical_path = std::max(critical_path, finish_bound[i]);
    total += static_cast<double>(costs[i]);
  }

  const uint32_t cores = 1 + static_cast<uint32_t>(GetParam() % 7);
  Machine m = MakeMachine({cores});
  double makespan = m.Run(g);
  EXPECT_GE(makespan, critical_path - 1e-9);
  EXPECT_GE(makespan, total / cores - 1e-9);
  EXPECT_LE(makespan, total + 1e-9);
  if (cores == 1) {
    EXPECT_NEAR(makespan, total, 1e-9);
  }
  for (int i = 0; i < n; ++i) EXPECT_EQ(ran[i], 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MachinePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 14, 21));

TEST(MachineTest, PipelineOverlapsStages) {
  // Two-stage pipeline over 4 items, stages on different groups: the
  // classic overlap: makespan = s1 + 4 * s2 when s2 >= s1.
  TaskGraph g;
  TaskId prev_s2 = kInvalidTask;
  for (int i = 0; i < 4; ++i) {
    TaskId s1 = AddCost(&g, 1, 0, i);
    TaskId s2 = AddCost(&g, 2, 1, i);
    g.AddEdge(s1, s2);
    if (prev_s2 != kInvalidTask) g.AddEdge(prev_s2, s2);
    prev_s2 = s2;
  }
  Machine m = MakeMachine({1, 1});
  EXPECT_DOUBLE_EQ(m.Run(g), 1.0 + 4 * 2.0);
}

// --- The piece DAG and its list schedule (CLR-P's piece-sets) -------------

std::vector<uint32_t> After(const TaskWork& dag, size_t i) {
  return dag.pieces()[i].after;
}

TEST(ListScheduleTest, ResolvedPieceWaitsForItsKeysLastPiecesOnly) {
  TaskWork dag;
  dag.AddResolved(Seconds(4), {{0, 7}});          // 0
  dag.AddResolved(Seconds(1), {{0, 7}});          // 1: after 0.
  dag.AddUnresolved(Seconds(1));                  // 2: after everything.
  dag.AddResolved(Seconds(1), {{1, 7}});          // 3: after 2 alone.
  dag.AddResolved(Seconds(1), {{0, 7}, {0, 9}});  // 4: after 2 and 1.
  // Keys are exact (table, key) pairs: key 2^56 + 7 of table 0 is not
  // key 7 of table 1.
  dag.AddResolved(Seconds(1), {{0, (1ull << 56) + 7}, {0, 7}, {0, 7}});
  ASSERT_EQ(dag.pieces().size(), 6u);
  EXPECT_EQ(After(dag, 0), std::vector<uint32_t>{});
  EXPECT_EQ(After(dag, 1), std::vector<uint32_t>{0});
  EXPECT_TRUE(dag.pieces()[2].after_all);
  EXPECT_EQ(After(dag, 3), std::vector<uint32_t>{2});
  EXPECT_EQ(After(dag, 4), (std::vector<uint32_t>{2, 1}));
  EXPECT_EQ(After(dag, 5), (std::vector<uint32_t>{2, 4}));
  // On 4 cores: 0 [0,4), 1 [4,5), 2 [5,6), 3 and 4 [6,7), 5 [7,8).
  EXPECT_DOUBLE_EQ(ListSchedule(dag, 4, PerRead), 8.0);
}

TEST(ListScheduleTest, UnresolvedPieceWaitsForEveryEarlierPiece) {
  TaskWork dag;
  dag.AddResolved(Seconds(3), {{0, 1}});
  dag.AddResolved(Seconds(1), {{0, 2}});
  dag.AddUnresolved(Seconds(1));  // Starts when the 3 s piece ends.
  dag.AddResolved(Seconds(1), {{0, 3}});
  EXPECT_DOUBLE_EQ(ListSchedule(dag, 2, PerRead), 5.0);
  // One core serializes everything anyway.
  EXPECT_DOUBLE_EQ(ListSchedule(dag, 1, PerRead), 6.0);
}

TEST(ListScheduleTest, EachPieceTakesTheEarliestFreeCore) {
  TaskWork dag;
  dag.AddResolved(Seconds(2), {{0, 1}});  // Core 0: [0,2).
  dag.AddResolved(Seconds(5), {{0, 2}});  // Core 1: [0,5).
  dag.AddResolved(Seconds(1), {{0, 1}});  // Core 0, free first: [2,3).
  dag.AddResolved(Seconds(1), {{0, 3}});  // Core 0 again: [3,4).
  EXPECT_DOUBLE_EQ(ListSchedule(dag, 2, PerRead), 5.0);
  // A third core only moves pieces 2 and 3 to [2,3): still 5.
  EXPECT_DOUBLE_EQ(ListSchedule(dag, 3, PerRead), 5.0);
  EXPECT_DOUBLE_EQ(ListSchedule(TaskWork(), 3, PerRead), 0.0);
}

}  // namespace
}  // namespace pacman::sim
