// Tests for the discrete-event multicore machine.
#include "sim/machine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "sim/task_graph.h"

namespace pacman::sim {
namespace {

// A task that occupies one core of `group` for `cost` virtual seconds.
TaskId AddCost(TaskGraph* g, double cost, GroupId group = 0,
               uint64_t priority = 0) {
  return g->AddTask(group, priority, [cost] { return cost; });
}

TEST(MachineTest, SerialChainTakesSumOfCosts) {
  TaskGraph g;
  TaskId a = AddCost(&g, 1.0);
  TaskId b = AddCost(&g, 2.0);
  TaskId c = AddCost(&g, 3.0);
  g.AddEdge(a, b);
  g.AddEdge(b, c);
  Machine m(MachineConfig::Uniform(4));
  EXPECT_DOUBLE_EQ(m.Run(g), 6.0);
}

TEST(MachineTest, IndependentTasksRunInParallel) {
  TaskGraph g;
  for (int i = 0; i < 8; ++i) AddCost(&g, 1.0);
  Machine m4(MachineConfig::Uniform(4));
  EXPECT_DOUBLE_EQ(m4.Run(g), 2.0);

  TaskGraph g2;
  for (int i = 0; i < 8; ++i) AddCost(&g2, 1.0);
  Machine m1(MachineConfig::Uniform(1));
  EXPECT_DOUBLE_EQ(m1.Run(g2), 8.0);
}

TEST(MachineTest, WorkRunsExactlyOnceInDependencyOrder) {
  TaskGraph g;
  std::vector<int> order;
  auto record = [&](int i) {
    return [&order, i] {
      order.push_back(i);
      return 1.0;
    };
  };
  TaskId a = g.AddTask(0, 0, record(1));
  TaskId b = g.AddTask(0, 0, record(2));
  TaskId c = g.AddTask(0, 0, record(3));
  g.AddEdge(a, b);
  g.AddEdge(a, c);
  Machine m(MachineConfig::Uniform(1));
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
    return 1.0;
  });
  g.AddTask(0, /*priority=*/1, [&] {
    order.push_back(2);
    return 1.0;
  });
  Machine m(MachineConfig::Uniform(1));
  m.Run(g);
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(MachineTest, GroupsAreIsolatedResources) {
  // Group 0 has 1 core, group 1 has 2 cores. Three unit tasks per group.
  TaskGraph g;
  for (int i = 0; i < 3; ++i) AddCost(&g, 1.0, 0);
  for (int i = 0; i < 3; ++i) AddCost(&g, 1.0, 1);
  Machine m(MachineConfig{{1, 2}});
  // Group 0 is the bottleneck; one pool of three cores would take 2.0.
  EXPECT_DOUBLE_EQ(m.Run(g), 3.0);
}

TEST(MachineTest, ChargesWhatRunReturnsAtDispatch) {
  // The cost is known only when the task runs: here it depends on state
  // its predecessor set, as a piece-set's depends on upstream parameters.
  TaskGraph g;
  double upstream = 0.0;
  TaskId a = g.AddTask(0, 0, [&] {
    upstream = 2.0;
    return 1.0;
  });
  TaskId b = g.AddTask(0, 0, [&] { return upstream; });
  TaskId c = g.AddTask(0, 0);  // Empty run: a zero-cost join.
  g.AddEdge(a, b);
  g.AddEdge(b, c);
  Machine m(MachineConfig::Uniform(1));
  EXPECT_DOUBLE_EQ(m.Run(g), 3.0);
}

TEST(MachineDeathTest, NegativeCostDies) {
  TaskGraph g;
  g.AddTask(0, 0, [] { return -1.0; });
  Machine m(MachineConfig::Uniform(1));
  EXPECT_DEATH(m.Run(g), "cost >= 0");
}

TEST(MachineTest, DiamondDependency) {
  // a -> {b, c} -> d on 2 cores: 1 + 2 + 1.
  TaskGraph g;
  TaskId a = AddCost(&g, 1.0);
  TaskId b = AddCost(&g, 2.0);
  TaskId c = AddCost(&g, 2.0);
  TaskId d = AddCost(&g, 1.0);
  g.AddEdge(a, b);
  g.AddEdge(a, c);
  g.AddEdge(b, d);
  g.AddEdge(c, d);
  Machine m(MachineConfig::Uniform(2));
  EXPECT_DOUBLE_EQ(m.Run(g), 4.0);
}

// Property sweep: on random DAGs the makespan must lie between the
// theoretical bounds, collapse to the serial sum on one core, and execute
// every side effect exactly once in dependency order.
class MachinePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MachinePropertyTest, MakespanBoundsOnRandomDags) {
  pacman::Rng rng(GetParam());
  const int n = 120;
  TaskGraph g;
  std::vector<double> costs(n);
  std::vector<std::vector<TaskId>> deps(n);
  std::vector<int> ran(n, 0);
  std::vector<double> finish_bound(n, 0.0);
  for (int i = 0; i < n; ++i) {
    costs[i] = 0.5 + rng.UniformDouble();
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
      return cost;
    });
    for (TaskId d : deps[i]) g.AddEdge(d, t);
  }
  // Critical path (longest cost chain) lower bound.
  for (int i = 0; i < n; ++i) {
    double start = 0.0;
    for (TaskId d : deps[i]) start = std::max(start, finish_bound[d]);
    finish_bound[i] = start + costs[i];
  }
  double critical_path = 0.0, total = 0.0;
  for (int i = 0; i < n; ++i) {
    critical_path = std::max(critical_path, finish_bound[i]);
    total += costs[i];
  }

  const uint32_t cores = 1 + static_cast<uint32_t>(GetParam() % 7);
  Machine m(MachineConfig::Uniform(cores));
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
    TaskId s1 = AddCost(&g, 1.0, 0, i);
    TaskId s2 = AddCost(&g, 2.0, 1, i);
    g.AddEdge(s1, s2);
    if (prev_s2 != kInvalidTask) g.AddEdge(prev_s2, s2);
    prev_s2 = s2;
  }
  Machine m(MachineConfig{{1, 1}});
  EXPECT_DOUBLE_EQ(m.Run(g), 1.0 + 4 * 2.0);
}

}  // namespace
}  // namespace pacman::sim
