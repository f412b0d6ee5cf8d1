#include <gtest/gtest.h>

#include "core/enhanced_graph.hpp"
#include "heft/heft.hpp"
#include "support/heft_linear_scan.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workflow/generators.hpp"

namespace cawo {
namespace {

Platform fastSlow() {
  Platform p;
  p.addProcessor({"slow", 1, 10, 5});
  p.addProcessor({"fast", 4, 40, 20});
  return p;
}

TEST(Heft, RanksDecreaseAlongEdges) {
  WorkflowGenOptions opts;
  opts.targetTasks = 60;
  opts.seed = 3;
  const TaskGraph g = generateWorkflow(WorkflowFamily::Atacseq, opts);
  const auto rank = heftUpwardRanks(g, fastSlow());
  for (const auto& e : g.edges())
    EXPECT_GT(rank[static_cast<std::size_t>(e.src)],
              rank[static_cast<std::size_t>(e.dst)]);
}

TEST(Heft, SinkRankIsItsAverageExecution) {
  TaskGraph g;
  g.addTask("only", 8);
  const auto rank = heftUpwardRanks(g, fastSlow());
  // exec on slow = 8, on fast = 2 → average 5.
  EXPECT_DOUBLE_EQ(rank[0], 5.0);
}

TEST(Heft, SingleTaskGoesToTheFastestProcessor) {
  TaskGraph g;
  g.addTask("t", 8);
  const HeftResult res = runHeft(g, fastSlow());
  EXPECT_EQ(res.mapping.procOf(0), 1);
  EXPECT_EQ(res.makespan, 2);
}

TEST(Heft, MappingIsValidForGeneratedWorkflows) {
  for (const auto family :
       {WorkflowFamily::Atacseq, WorkflowFamily::Bacass, WorkflowFamily::Eager,
        WorkflowFamily::Methylseq}) {
    WorkflowGenOptions opts;
    opts.targetTasks = 80;
    opts.seed = 11;
    const TaskGraph g = generateWorkflow(family, opts);
    const HeftResult res = runHeft(g, Platform::scaled(1));
    EXPECT_TRUE(res.mapping.validate(g).empty()) << familyName(family);
  }
}

TEST(Heft, StartTimesRespectPrecedenceAndCommunication) {
  WorkflowGenOptions opts;
  opts.targetTasks = 50;
  opts.seed = 17;
  const TaskGraph g = generateWorkflow(WorkflowFamily::Eager, opts);
  const Platform pf = Platform::scaled(1);
  const HeftResult res = runHeft(g, pf);
  for (const auto& e : g.edges()) {
    const auto is = static_cast<std::size_t>(e.src);
    const auto id = static_cast<std::size_t>(e.dst);
    const Time comm =
        res.mapping.procOf(e.src) == res.mapping.procOf(e.dst) ? 0 : e.data;
    EXPECT_GE(res.startTimes[id], res.finishTimes[is] + comm);
  }
}

TEST(Heft, NoOverlapOnAnyProcessor) {
  WorkflowGenOptions opts;
  opts.targetTasks = 70;
  opts.seed = 23;
  const TaskGraph g = generateWorkflow(WorkflowFamily::Methylseq, opts);
  const Platform pf = Platform::scaled(1);
  const HeftResult res = runHeft(g, pf);
  for (ProcId p = 0; p < pf.numProcessors(); ++p) {
    const auto order = res.mapping.orderOn(p);
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
      EXPECT_LE(res.finishTimes[static_cast<std::size_t>(order[i])],
                res.startTimes[static_cast<std::size_t>(order[i + 1])]);
    }
  }
}

TEST(Heft, MakespanIsAtLeastTheBestCriticalPath) {
  WorkflowGenOptions opts;
  opts.targetTasks = 40;
  opts.seed = 29;
  const TaskGraph g = generateWorkflow(WorkflowFamily::Atacseq, opts);
  const Platform pf = fastSlow();
  const HeftResult res = runHeft(g, pf);
  // Lower bound: the whole graph executed at maximum speed with no
  // communication, divided among all processors cannot beat the critical
  // work path on the fastest processor.
  Time lower = 0;
  for (TaskId v = 0; v < g.numTasks(); ++v)
    lower = std::max(lower, pf.execTime(g.work(v), 1));
  EXPECT_GE(res.makespan, lower);
}

TEST(Heft, FinishEqualsStartPlusExecTime) {
  WorkflowGenOptions opts;
  opts.targetTasks = 30;
  opts.seed = 31;
  const TaskGraph g = generateWorkflow(WorkflowFamily::Bacass, opts);
  const Platform pf = Platform::scaled(1);
  const HeftResult res = runHeft(g, pf);
  for (TaskId v = 0; v < g.numTasks(); ++v) {
    const auto iv = static_cast<std::size_t>(v);
    EXPECT_EQ(res.finishTimes[iv],
              res.startTimes[iv] +
                  pf.execTime(g.work(v), res.mapping.procOf(v)));
  }
}

TEST(Heft, ResultFeedsEnhancedGraphConstruction) {
  WorkflowGenOptions opts;
  opts.targetTasks = 60;
  opts.seed = 37;
  const TaskGraph g = generateWorkflow(WorkflowFamily::Atacseq, opts);
  const Platform pf = Platform::scaled(1);
  const HeftResult res = runHeft(g, pf);
  const EnhancedGraph gc =
      EnhancedGraph::build(g, pf, res.mapping, {}, &res.startTimes);
  EXPECT_GE(gc.numNodes(), g.numTasks());
  EXPECT_GE(gc.numLinks(), 0);
}

/// Random DAG over `n` tasks; about one task in four has zero work (a
/// zero-length slot on every processor) and edge data may be zero.
TaskGraph randomHeftDag(int n, double density, Rng& rng) {
  TaskGraph g;
  for (int i = 0; i < n; ++i)
    g.addTask(indexedName("t", i),
              rng.uniformInt(0, 3) == 0 ? 0 : rng.uniformInt(1, 40));
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (rng.uniformReal(0.0, 1.0) < density)
        g.addEdge(static_cast<TaskId>(i), static_cast<TaskId>(j),
                  rng.uniformInt(0, 12));
  return g;
}

TEST(Heft, InsertionSearchMatchesLinearScanOracle) {
  // Skipping the slots that end by the ready time must not change a single
  // placement: same processor, order, start and finish for every task.
  Rng rng(20261019);
  int cases = 0;
  for (const Platform& pf : {fastSlow(), Platform::scaled(1),
                             Platform::uniform(3, 2, 1, 1)}) {
    for (int i = 0; i < 12; ++i) {
      const int n = static_cast<int>(rng.uniformInt(1, 80));
      const double density = rng.uniformReal(0.0, 0.2);
      const TaskGraph g = randomHeftDag(n, density, rng);
      const HeftResult got = runHeft(g, pf);
      const HeftResult want = testing::runHeftLinearScan(g, pf);
      ASSERT_EQ(got.startTimes, want.startTimes) << "case " << cases;
      ASSERT_EQ(got.finishTimes, want.finishTimes) << "case " << cases;
      ASSERT_EQ(got.makespan, want.makespan) << "case " << cases;
      for (TaskId v = 0; v < g.numTasks(); ++v) {
        ASSERT_EQ(got.mapping.procOf(v), want.mapping.procOf(v));
        ASSERT_EQ(got.mapping.positionOf(v), want.mapping.positionOf(v));
      }
      ++cases;
    }
  }
  // Generated workflows, where insertion into earlier gaps is common.
  for (const auto family :
       {WorkflowFamily::Atacseq, WorkflowFamily::Bacass, WorkflowFamily::Eager,
        WorkflowFamily::Methylseq}) {
    WorkflowGenOptions opts;
    opts.targetTasks = 300;
    opts.seed = 41;
    const TaskGraph g = generateWorkflow(family, opts);
    const HeftResult got = runHeft(g, Platform::scaled(1));
    const HeftResult want = testing::runHeftLinearScan(g, Platform::scaled(1));
    EXPECT_EQ(got.startTimes, want.startTimes) << familyName(family);
    for (TaskId v = 0; v < g.numTasks(); ++v)
      ASSERT_EQ(got.mapping.positionOf(v), want.mapping.positionOf(v));
  }
}

TEST(Heft, ZeroWorkTasksAtTheReadyTimeKeepTheirSlot) {
  // a (zero work) and c (zero work) both become ready at b's finish on
  // the one processor; the zero-length slots at s == e == ready must be
  // placed exactly as the linear scan places them.
  TaskGraph g;
  const TaskId b = g.addTask("b", 6);
  const TaskId a = g.addTask("a", 0);
  const TaskId c = g.addTask("c", 0);
  const TaskId d = g.addTask("d", 3);
  g.addEdge(b, a);
  g.addEdge(b, c);
  g.addEdge(a, d);
  g.addEdge(c, d);
  const Platform pf = Platform::uniform(1, 1, 1, 1);
  const HeftResult got = runHeft(g, pf);
  const HeftResult want = testing::runHeftLinearScan(g, pf);
  EXPECT_EQ(got.startTimes, want.startTimes);
  EXPECT_EQ(got.startTimes[static_cast<std::size_t>(a)], 6);
  EXPECT_EQ(got.startTimes[static_cast<std::size_t>(c)], 6);
  EXPECT_EQ(got.startTimes[static_cast<std::size_t>(d)], 6);
}

} // namespace
} // namespace cawo
