// End-to-end smoke test: a small pipeline instance goes through HEFT,
// enhanced-graph construction, ASAP, every CaWoSched variant, and the cost
// evaluators without tripping any invariant.

#include <gtest/gtest.h>

#include "core/asap.hpp"
#include "core/carbon_cost.hpp"
#include "core/cawosched.hpp"
#include "core/solve_context.hpp"
#include "sim/instance.hpp"
#include "sim/runner.hpp"
#include "solver/registry.hpp"

namespace cawo {
namespace {

TEST(Smoke, EndToEndSmallInstance) {
  InstanceSpec spec;
  spec.family = WorkflowFamily::Atacseq;
  spec.targetTasks = 60;
  spec.nodesPerType = 1;
  spec.scenario = "S1";
  spec.deadlineFactor = 2.0;
  spec.seed = 42;

  const Instance inst = buildInstance(spec);
  EXPECT_GT(inst.gc.numNodes(), inst.graph.numTasks());
  EXPECT_GE(inst.deadline, inst.asapMakespanD);

  const SolveContext context(inst.gc, inst.profile, inst.deadline);
  const SolveRequest request = solveRequestFor(inst, context);
  const std::vector<std::string> suite = suiteSolverNames();
  ASSERT_EQ(suite.size(), 17u); // ASAP + 16 variants
  for (const std::string& name : suite) {
    const SolveResult solved =
        SolverRegistry::global().create(name)->solve(request);
    EXPECT_TRUE(solved.feasible) << name;
    EXPECT_GE(solved.cost, 0) << name;
  }
}

} // namespace
} // namespace cawo
