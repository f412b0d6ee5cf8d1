// Differential test of the dirty-set local search against the full-scan
// reference climb (tests/support/local_search_full_scan.hpp): skipping
// clean tasks must reproduce the full scan's move sequence exactly — same
// starts, rounds, applied moves and costs — across strategies, radii,
// round caps, restarts and thread counts.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/carbon_cost.hpp"
#include "core/greedy.hpp"
#include "core/local_search.hpp"
#include "exp/json.hpp"
#include "obs/trace.hpp"
#include "sim/instance.hpp"
#include "support/local_search_full_scan.hpp"
#include "test_util.hpp"

namespace cawo {
namespace {

using testing::makeGc;

struct Case {
  std::string name;
  EnhancedGraph gc;
  PowerProfile profile;
  Time deadline = 0;
};

EnhancedGraph randomDag(int n, int numProcs, double density, Rng& rng) {
  std::vector<std::pair<ProcId, Time>> tasks;
  for (int i = 0; i < n; ++i)
    tasks.push_back({static_cast<ProcId>(rng.uniformInt(0, numProcs - 1)),
                     rng.uniformInt(1, 9)});
  std::vector<std::pair<TaskId, TaskId>> edges;
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (rng.uniformReal(0.0, 1.0) < density)
        edges.push_back({static_cast<TaskId>(i), static_cast<TaskId>(j)});
  std::vector<Power> idle, work;
  for (int p = 0; p < numProcs; ++p) {
    idle.push_back(rng.uniformInt(0, 3));
    work.push_back(rng.uniformInt(1, 6));
  }
  return makeGc(tasks, edges, idle, work);
}

/// Random DAGs with random staircase profiles, plus two generated
/// workflow instances whose enhanced graphs carry communication nodes on
/// link processors.
std::vector<Case> cases() {
  std::vector<Case> out;
  Rng rng(20260612);
  for (int i = 0; i < 6; ++i) {
    // Tight deadlines let precedence bound the move windows; loose ones
    // let the ±radius clamp bind, so far-reaching invalidation matters.
    const bool loose = i >= 3;
    const int n = static_cast<int>(rng.uniformInt(20, 50));
    const int procs = static_cast<int>(rng.uniformInt(2, 4));
    EnhancedGraph gc = randomDag(n, procs, rng.uniformReal(0.03, 0.15), rng);
    const Time deadline = gc.criticalPathLength() +
                          (loose ? rng.uniformInt(150, 300)
                                 : rng.uniformInt(10, 60));
    PowerProfile profile = testing::randomProfile(
        deadline, static_cast<int>(rng.uniformInt(4, 24)), 0, 25, rng);
    out.push_back({"dag" + std::to_string(i), std::move(gc),
                   std::move(profile), deadline});
  }
  for (const auto& [family, scenario] :
       {std::pair{WorkflowFamily::Atacseq, "S1"},
        std::pair{WorkflowFamily::Eager, "S3"}}) {
    InstanceSpec spec;
    spec.family = family;
    spec.targetTasks = 40;
    spec.nodesPerType = 1;
    spec.scenario = scenario;
    spec.deadlineFactor = 2.0;
    spec.numIntervals = 12;
    Instance inst = buildInstance(spec);
    out.push_back({spec.label(), std::move(inst.gc), std::move(inst.profile),
                   inst.deadline});
  }
  return out;
}

/// Starting schedules: every greedy variant plus two random feasible ones.
std::vector<Schedule> starts(const Case& c) {
  std::vector<Schedule> out;
  for (const BaseScore base : {BaseScore::Slack, BaseScore::Pressure})
    for (const bool weighted : {false, true})
      for (const bool refined : {false, true}) {
        GreedyOptions g;
        g.base = base;
        g.weighted = weighted;
        g.refined = refined;
        out.push_back(scheduleGreedy(c.gc, c.profile, c.deadline, g));
      }
  Rng rng(77);
  for (int i = 0; i < 2; ++i)
    out.push_back(testing::randomSchedule(c.gc, c.deadline, rng));
  return out;
}

std::vector<Time> startsOf(const EnhancedGraph& gc, const Schedule& s) {
  std::vector<Time> out;
  for (TaskId v = 0; v < gc.numNodes(); ++v) out.push_back(s.start(v));
  return out;
}

TEST(LocalSearchDirty, MatchesFullScanAcrossTheOptionGrid) {
  std::size_t climbs = 0, moved = 0;
  for (const Case& c : cases()) {
    const std::vector<Schedule> inputs = starts(c);
    for (const MoveStrategy strategy :
         {MoveStrategy::FirstImprovement, MoveStrategy::BestImprovement})
      for (const Time radius : {0, 1, 4, 10, 64})
        for (const std::size_t maxRounds :
             {std::size_t{1}, std::size_t{2}, LocalSearchOptions{}.maxRounds})
          for (const std::size_t restarts : {1, 3})
            for (const unsigned threads : {1u, 4u}) {
              LocalSearchOptions opts;
              opts.strategy = strategy;
              opts.radius = radius;
              opts.maxRounds = maxRounds;
              opts.restarts = restarts;
              opts.threads = threads;
              for (std::size_t i = 0; i < inputs.size(); ++i) {
                Schedule mine = inputs[i];
                Schedule ref = inputs[i];
                const LocalSearchStats got = localSearchRestarts(
                    c.gc, c.profile, c.deadline, mine, opts);
                const LocalSearchStats want =
                    testing::fullScanLocalSearchRestarts(
                        c.gc, c.profile, c.deadline, ref, opts);
                const std::string where =
                    c.name + " start " + std::to_string(i) + " strategy " +
                    std::to_string(static_cast<int>(strategy)) + " radius " +
                    std::to_string(radius) + " maxRounds " +
                    std::to_string(maxRounds) + " restarts " +
                    std::to_string(restarts) + " threads " +
                    std::to_string(threads);
                ASSERT_EQ(startsOf(c.gc, mine), startsOf(c.gc, ref)) << where;
                ASSERT_EQ(got.rounds, want.rounds) << where;
                ASSERT_EQ(got.movesApplied, want.movesApplied) << where;
                ASSERT_EQ(got.initialCost, want.initialCost) << where;
                ASSERT_EQ(got.finalCost, want.finalCost) << where;
                ASSERT_EQ(got.bestRestart, want.bestRestart) << where;
                ASSERT_EQ(got.finalCost,
                          evaluateCost(c.gc, c.profile, mine)) << where;
                ++climbs;
                if (got.movesApplied > 0) ++moved;
              }
            }
  }
  // The grid must exercise real climbs, not just radius-0 no-ops.
  EXPECT_GT(moved, climbs / 2);
}

/// v (costly processor, probed first) sits behind its predecessor u in a
/// dark stretch. In round 1 v's window is capped by u's end, so v finds
/// no gain and goes clean; u then moves into the green stretch. Only that
/// predecessor move widens v's window — v must be re-probed in round 2 and
/// follow u. w is an unrelated task far away: it stays clean after round
/// 1 and is skipped from then on.
struct PredecessorCase {
  EnhancedGraph gc = makeGc({{1, 2}, {0, 2}, {2, 2}}, {{0, 1}}, {0, 0, 0},
                            {5, 1, 1});
  PowerProfile profile;
  Time deadline = 30;
  Schedule schedule{3};

  PredecessorCase() {
    profile.appendInterval(10, 10); // green
    profile.appendInterval(20, 0);  // dark
    schedule.setStart(0, 10);       // u: [10, 12)
    schedule.setStart(1, 12);       // v: [12, 14), blocked by u's end
    schedule.setStart(2, 24);       // w: [24, 26)
  }
};

TEST(LocalSearchDirty, PredecessorMoveReopensACleanTask) {
  PredecessorCase c;
  Schedule ref = c.schedule;
  LocalSearchOptions opts;
  opts.radius = 4;
  const LocalSearchStats got =
      localSearch(c.gc, c.profile, c.deadline, c.schedule, opts);
  const LocalSearchStats want =
      testing::fullScanLocalSearch(c.gc, c.profile, c.deadline, ref, opts);

  EXPECT_EQ(c.schedule.start(0), 6); // u moved into the green stretch
  EXPECT_EQ(c.schedule.start(1), 8); // v followed through its widened window
  EXPECT_EQ(c.schedule.start(2), 24);
  EXPECT_EQ(got.rounds, 3u);
  EXPECT_EQ(got.movesApplied, 2u);
  EXPECT_EQ(startsOf(c.gc, c.schedule), startsOf(c.gc, ref));
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.movesApplied, want.movesApplied);
  EXPECT_EQ(got.finalCost, want.finalCost);
}

TEST(LocalSearchDirty, MoveAtTheRadiusEdgeReopensACleanTask) {
  // x (probed first) sits in the dark; its farthest-left candidate
  // [16, 18) (radius 4) overlaps u at [15, 17) on the weak green slot
  // [15, 17), so x finds no gain. u then leaves for the full green slot
  // [12, 14). The vacated span touches x's read range [start − r,
  // end + r) in one time unit at its radius edge, with no Gc edge between
  // the two — x must still be re-probed, and walks into the weak slot.
  // The mirrored instance pins the right-hand edge the same way.
  const std::vector<std::pair<Time, Power>> intervals = {
      {12, 0}, {2, 5}, {1, 0}, {2, 4}, {23, 0}};
  const Time horizon = 40, len = 2;
  for (const bool mirror : {false, true}) {
    const auto at = [&](Time t) { return mirror ? horizon - t - len : t; };
    const EnhancedGraph gc = makeGc({{0, len}, {1, len}}, {}, {0, 0}, {5, 5});
    PowerProfile profile;
    for (std::size_t i = 0; i < intervals.size(); ++i) {
      const auto& [span, budget] =
          intervals[mirror ? intervals.size() - 1 - i : i];
      profile.appendInterval(span, budget);
    }
    Schedule s(2);
    s.setStart(0, at(20)); // x
    s.setStart(1, at(15)); // u
    Schedule ref = s;
    LocalSearchOptions opts;
    opts.radius = 4;
    const LocalSearchStats got = localSearch(gc, profile, horizon, s, opts);
    const LocalSearchStats want =
        testing::fullScanLocalSearch(gc, profile, horizon, ref, opts);

    EXPECT_EQ(s.start(1), at(12)) << "mirror " << mirror;
    EXPECT_EQ(s.start(0), at(15)) << "mirror " << mirror;
    EXPECT_EQ(got.rounds, 4u) << "mirror " << mirror;
    EXPECT_EQ(got.movesApplied, 3u) << "mirror " << mirror;
    EXPECT_EQ(startsOf(gc, s), startsOf(gc, ref)) << "mirror " << mirror;
    EXPECT_EQ(got.rounds, want.rounds) << "mirror " << mirror;
    EXPECT_EQ(got.finalCost, want.finalCost) << "mirror " << mirror;
  }
}

TEST(LocalSearchDirty, RoundSpansReportSkippedCleanTasks) {
#ifdef CAWO_OBS_DISABLED
  GTEST_SKIP() << "CAWO_OBS_DISABLED: span sites compiled out";
#endif
  auto& recorder = obs::TraceRecorder::global();
  recorder.setState(obs::TraceState::Off);
  recorder.clear();
  PredecessorCase c;
  LocalSearchOptions opts;
  opts.radius = 4;
  recorder.setState(obs::TraceState::Recording);
  localSearch(c.gc, c.profile, c.deadline, c.schedule, opts);
  recorder.setState(obs::TraceState::Off);
  std::ostringstream out;
  recorder.writeChromeTrace(out);
  recorder.clear();

  std::vector<std::int64_t> skipped, probes;
  const JsonValue doc = JsonValue::parse(out.str());
  for (const JsonValue& ev : doc.at("traceEvents").asArray()) {
    if (ev.at("ph").asString() != "X" || ev.at("name").asString() != "ls.round")
      continue;
    probes.push_back(ev.at("args").at("probes").asInt());
    skipped.push_back(ev.at("args").at("skipped").asInt());
  }
  // Round 1 probes all three tasks. w stays clean from then on; u, probed
  // after v's round-2 move, is clean again in round 3.
  EXPECT_EQ(skipped, (std::vector<std::int64_t>{0, 1, 2}));
  ASSERT_EQ(probes.size(), 3u);
  EXPECT_GT(probes[0], 0);
}

} // namespace
} // namespace cawo
