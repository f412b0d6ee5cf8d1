#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/require.hpp"

#include "core/asap.hpp"
#include "core/carbon_cost.hpp"
#include "support/cost_reference.hpp"
#include "test_util.hpp"

namespace cawo {
namespace {

using testing::makeChainGc;
using testing::makeGc;
using testing::makeIndependentGc;
using testing::randomProfile;
using testing::randomSchedule;

TEST(CarbonCost, HandComputedSingleTask) {
  // One task len 4 on a proc with idle 2 / work 3; budget 4 everywhere.
  // Idle-only draw 2 ≤ 4 → no cost; while running draw 5 → overflow 1.
  const EnhancedGraph gc = makeChainGc({4}, /*idle=*/2, /*work=*/3);
  const PowerProfile profile = PowerProfile::uniform(10, 4);
  Schedule s(1);
  s.setStart(0, 3);
  EXPECT_EQ(evaluateCost(gc, profile, s), 4 * 1);
}

TEST(CarbonCost, IdleFloorAccruesWithoutTasks) {
  // Idle 5 > budget 3 → overflow 2 on the whole horizon, task adds more.
  const EnhancedGraph gc = makeChainGc({2}, /*idle=*/5, /*work=*/10);
  const PowerProfile profile = PowerProfile::uniform(10, 3);
  Schedule s(1);
  s.setStart(0, 0);
  // 10 units of idle overflow 2 = 20, plus 2 units of extra work 10 = 20.
  EXPECT_EQ(evaluateCost(gc, profile, s), 40);
}

TEST(CarbonCost, TaskSpanningIntervalBoundary) {
  // Budget 10 in [0,5), 0 in [5,10). Task len 4 at start 3: 2 units in the
  // green interval (draw 3 ≤ 10 → 0), 2 units in the dark one (draw 3 → 6).
  const EnhancedGraph gc = makeChainGc({4}, 1, 2);
  PowerProfile profile;
  profile.appendInterval(5, 10);
  profile.appendInterval(5, 0);
  Schedule s(1);
  s.setStart(0, 3);
  // Idle floor in dark interval: 1×5 = 5 on the 3 task-free units... careful:
  // idle applies always; during the task the draw is 3.
  // [0,3): idle 1 ≤ 10 → 0. [3,5): 3 ≤ 10 → 0. [5,7): draw 3 → 6. [7,10): 1×3.
  EXPECT_EQ(evaluateCost(gc, profile, s), 6 + 3);
}

TEST(CarbonCost, ParallelTasksAddPower) {
  const EnhancedGraph gc = makeIndependentGc({3, 3}, {0, 0}, {4, 5});
  const PowerProfile profile = PowerProfile::uniform(6, 6);
  Schedule s(2);
  s.setStart(0, 0);
  s.setStart(1, 0);
  // Together they draw 9 > 6 → overflow 3 for 3 units.
  EXPECT_EQ(evaluateCost(gc, profile, s), 9);
  s.setStart(1, 3); // sequential → each draws below budget
  EXPECT_EQ(evaluateCost(gc, profile, s), 0);
}

TEST(CarbonCost, ZeroLengthTasksAreFree) {
  const EnhancedGraph gc = makeChainGc({0, 0}, 0, 100);
  const PowerProfile profile = PowerProfile::uniform(5, 0);
  Schedule s(2);
  s.setStart(0, 0);
  s.setStart(1, 0);
  EXPECT_EQ(evaluateCost(gc, profile, s), 0);
}

TEST(CarbonCost, IncompleteScheduleIsRejected) {
  const EnhancedGraph gc = makeChainGc({2});
  const PowerProfile profile = PowerProfile::uniform(5, 0);
  Schedule s(1);
  EXPECT_THROW(evaluateCost(gc, profile, s), PreconditionError);
}

TEST(CarbonCost, ScheduleBeyondHorizonIsRejected) {
  const EnhancedGraph gc = makeChainGc({4});
  const PowerProfile profile = PowerProfile::uniform(5, 0);
  Schedule s(1);
  s.setStart(0, 3);
  EXPECT_THROW(evaluateCost(gc, profile, s), PreconditionError);
}

TEST(CarbonCost, BreakdownTotalsMatchEvaluate) {
  const EnhancedGraph gc = makeGc({{0, 3}, {1, 4}, {0, 2}},
                                  {{0, 1}, {1, 2}}, {2, 3}, {5, 7});
  PowerProfile profile;
  profile.appendInterval(6, 8);
  profile.appendInterval(6, 2);
  profile.appendInterval(8, 12);
  const Schedule s = scheduleAsap(gc);
  const CostBreakdown b = evaluateCostBreakdown(gc, profile, s);
  EXPECT_EQ(b.total, evaluateCost(gc, profile, s));
  Cost sum = 0;
  for (const Cost c : b.perInterval) sum += c;
  EXPECT_EQ(sum, b.total);
  EXPECT_EQ(b.brownEnergyUsed, b.total);
  EXPECT_GE(b.peakPower, gc.totalIdlePower());
}

// Property: the sweep-line evaluator agrees with the per-time-unit
// reference on randomised instances, schedules and profiles.
class CostEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(CostEquivalence, SweepMatchesReference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  // Random multiproc graph from parts.
  const int numProcs = static_cast<int>(rng.uniformInt(1, 4));
  const int numTasks = static_cast<int>(rng.uniformInt(1, 12));
  std::vector<std::pair<ProcId, Time>> tasks;
  std::vector<std::pair<TaskId, TaskId>> edges;
  for (int i = 0; i < numTasks; ++i)
    tasks.push_back({static_cast<ProcId>(rng.uniformInt(0, numProcs - 1)),
                     rng.uniformInt(0, 5)});
  for (int i = 0; i < numTasks; ++i)
    for (int j = i + 1; j < numTasks; ++j)
      if (rng.uniform01() < 0.2)
        edges.push_back({static_cast<TaskId>(i), static_cast<TaskId>(j)});
  std::vector<Power> idle, work;
  for (int p = 0; p < numProcs; ++p) {
    idle.push_back(rng.uniformInt(0, 5));
    work.push_back(rng.uniformInt(1, 9));
  }
  const EnhancedGraph gc = testing::makeGc(tasks, edges, idle, work);

  const Time deadline = gc.criticalPathLength() + rng.uniformInt(0, 20);
  const Time horizon = std::max<Time>(deadline, 1);
  const PowerProfile profile = randomProfile(horizon, 4, 0, 15, rng);
  const Schedule s = randomSchedule(gc, deadline, rng);
  ASSERT_TRUE(validateSchedule(gc, s, deadline).ok);

  EXPECT_EQ(evaluateCost(gc, profile, s),
            evaluateCostReference(gc, profile, s));
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, CostEquivalence,
                         ::testing::Range(0, 40));

/// Per-time-unit breakdown reference: the same quantities as
/// `evaluateCostBreakdown`, summed one time unit at a time.
CostBreakdown breakdownReference(const EnhancedGraph& gc,
                                 const PowerProfile& profile,
                                 const Schedule& s) {
  const Time horizon = profile.horizon();
  std::vector<Power> power(static_cast<std::size_t>(horizon),
                           gc.totalIdlePower());
  for (TaskId u = 0; u < gc.numNodes(); ++u)
    for (Time t = s.start(u); t < s.end(u, gc); ++t)
      power[static_cast<std::size_t>(t)] += gc.workPower(gc.procOf(u));
  CostBreakdown out;
  out.perInterval.assign(profile.numIntervals(), 0);
  for (Time t = 0; t < horizon; ++t) {
    const Power draw = power[static_cast<std::size_t>(t)];
    const Power green = profile.greenAt(t);
    out.peakPower = std::max(out.peakPower, draw);
    if (draw > green) {
      out.perInterval[profile.indexAt(t)] += draw - green;
      out.total += draw - green;
      out.brownEnergyUsed += draw - green;
      out.greenEnergyUsed += green;
    } else {
      out.greenEnergyUsed += draw;
    }
  }
  return out;
}

TEST(CarbonCost, SweepAndBreakdownMatchReferenceOnUnorderedEvents) {
  // Starts drawn independently per node, ignoring precedence and chain
  // order, so events arrive in no particular order and often coincide;
  // zero-length nodes and nodes ending exactly at the horizon included.
  Rng rng(0xc0575eed);
  for (int trial = 0; trial < 80; ++trial) {
    const int numProcs = static_cast<int>(rng.uniformInt(1, 4));
    std::vector<std::pair<ProcId, Time>> tasks;
    const int numTasks = static_cast<int>(rng.uniformInt(1, 20));
    for (int i = 0; i < numTasks; ++i)
      tasks.push_back({static_cast<ProcId>(rng.uniformInt(0, numProcs - 1)),
                       rng.uniformInt(0, 3) == 0 ? 0 : rng.uniformInt(1, 8)});
    std::vector<Power> idle, work;
    for (int p = 0; p < numProcs; ++p) {
      idle.push_back(rng.uniformInt(0, 4));
      work.push_back(rng.uniformInt(1, 7));
    }
    const EnhancedGraph gc = makeGc(tasks, {}, idle, work);
    const Time horizon = rng.uniformInt(8, 40);
    const PowerProfile profile = randomProfile(horizon, 5, 0, 14, rng);
    Schedule s(gc.numNodes());
    for (TaskId u = 0; u < gc.numNodes(); ++u) {
      const Time latest = std::max<Time>(0, horizon - gc.len(u));
      s.setStart(u, rng.uniformInt(0, 3) == 0 ? latest
                                              : rng.uniformInt(0, latest));
    }
    ASSERT_EQ(evaluateCost(gc, profile, s),
              evaluateCostReference(gc, profile, s))
        << "trial " << trial;
    const CostBreakdown got = evaluateCostBreakdown(gc, profile, s);
    const CostBreakdown want = breakdownReference(gc, profile, s);
    EXPECT_EQ(got.total, want.total) << "trial " << trial;
    EXPECT_EQ(got.perInterval, want.perInterval) << "trial " << trial;
    EXPECT_EQ(got.peakPower, want.peakPower) << "trial " << trial;
    EXPECT_EQ(got.greenEnergyUsed, want.greenEnergyUsed) << "trial " << trial;
    EXPECT_EQ(got.brownEnergyUsed, want.brownEnergyUsed) << "trial " << trial;
  }
}

/// The message of the PreconditionError `f` throws, or "" if none.
template <typename F>
std::string preconditionMessage(F&& f) {
  try {
    f();
  } catch (const PreconditionError& e) {
    return e.what();
  }
  return "";
}

TEST(CarbonCost, RejectsBadSchedulesWithTheFirstViolationInNodeOrder) {
  // The first failing node in id order names the error, and both
  // evaluators report the same check. A negative start counts as unset.
  const EnhancedGraph gc = makeChainGc({2, 3, 4});
  const PowerProfile profile = PowerProfile::uniform(10, 1);
  const auto expectError = [&](const Schedule& s, const std::string& expr,
                               const std::string& text) {
    for (const std::string& message :
         {preconditionMessage([&] { evaluateCost(gc, profile, s); }),
          preconditionMessage(
              [&] { evaluateCostBreakdown(gc, profile, s); })}) {
      EXPECT_EQ(message.rfind("precondition failed: " + expr + " at ", 0), 0u)
          << message;
      EXPECT_NE(message.find("carbon_cost.cpp"), std::string::npos)
          << message;
      EXPECT_TRUE(message.ends_with("— " + text)) << message;
    }
  };
  const std::string incomplete = "schedule is incomplete";
  const std::string pastHorizon = "schedule exceeds the profile horizon";
  Schedule s(3);
  s.setStart(0, 9); // ends at 11, before node 1's missing start is seen
  s.setStart(2, 8);
  expectError(s, "b <= profile.horizon()", pastHorizon);
  s.setStart(0, 0);
  expectError(s, "s.isSet(u)", incomplete);
  s.setStart(1, -3);
  expectError(s, "s.isSet(u)", incomplete);
  s.setStart(1, 2);
  expectError(s, "b <= profile.horizon()", pastHorizon);
  s.setStart(2, 6); // ends exactly at the horizon
  EXPECT_EQ(evaluateCost(gc, profile, s),
            evaluateCostReference(gc, profile, s));
}

TEST(CarbonCost, ZeroLengthNodesAreNotRangeChecked) {
  // A zero-length node draws no power, so its start is never checked
  // against the horizon — only that it is set.
  const EnhancedGraph gc = makeChainGc({0, 3, 0});
  const PowerProfile profile = PowerProfile::uniform(6, 2);
  Schedule s(3);
  s.setStart(0, 0);
  s.setStart(1, 0);
  s.setStart(2, 9);
  EXPECT_EQ(evaluateCost(gc, profile, s), 3 * (1 + 3 - 2));
  EXPECT_EQ(evaluateCostBreakdown(gc, profile, s).total, 6);
}

} // namespace
} // namespace cawo
