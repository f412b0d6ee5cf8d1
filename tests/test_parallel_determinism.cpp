// The parallel solve core's determinism contract (see DESIGN.md,
// "Parallel solve core"): every parallel kernel must produce the same
// bytes as its serial twin for every thread count — the fan-outs reduce
// in deterministic order (candidate index, restart index, variant index),
// never in arrival order.
//
//   * all 16 CaWoSched variants over random DAGs, batched via
//     `runVariants` at threads ∈ {1, 2, 8} and repeated runs — every
//     schedule bit-identical to the serial `runVariant` reference;
//   * multi-start local search (`localSearchRestarts`) reproducing the
//     serial best-of-N merge exactly at every thread count;
//   * the wide-window parallel candidate scan matching the serial scan
//     for both move strategies;
//   * the shared-context contract: eight threads racing on one unprimed
//     context get every artifact, variant schedule and residual replay
//     bit-identical to a serial context's.

#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <utility>
#include <vector>

#include "core/asap.hpp"
#include "core/cawosched.hpp"
#include "core/local_search.hpp"
#include "core/solve_context.hpp"
#include "online/replay.hpp"
#include "profile/profile_source.hpp"
#include "sim/instance.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace cawo {
namespace {

using testing::makeGc;
using testing::makeIndependentGc;
using testing::randomProfile;

/// A random DAG on `n` nodes spread over `numProcs` processors (same
/// construction as the solve-context parity tests): candidate edges
/// (i, j), i < j, kept with probability `density`, so chain edges always
/// point forward and the graph stays acyclic.
EnhancedGraph randomDag(int n, int numProcs, double density, Rng& rng) {
  std::vector<std::pair<ProcId, Time>> tasks;
  tasks.reserve(static_cast<std::size_t>(n));
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
    idle.push_back(rng.uniformInt(1, 3));
    work.push_back(rng.uniformInt(1, 6));
  }
  return makeGc(tasks, edges, idle, work);
}

struct RandomInstance {
  EnhancedGraph gc;
  PowerProfile profile;
  Time deadline = 0;
};

RandomInstance randomInstance(std::uint64_t seed) {
  Rng rng(seed);
  RandomInstance inst{randomDag(50, 3, 0.08, rng), PowerProfile{}, 0};
  inst.deadline = 2 * asapMakespan(inst.gc) + 5;
  inst.profile = randomProfile(inst.deadline, 12, 2, 14, rng);
  return inst;
}

// -------------------------------------------------------------------------
// Variant batch: 16 variants × threads {1, 2, 8} × repeated runs.
// -------------------------------------------------------------------------

TEST(ParallelDeterminism, AllVariantsBitIdenticalAcrossThreadCounts) {
  const std::vector<VariantSpec> variants = allVariants();
  ASSERT_EQ(variants.size(), 16u);
  const CaWoParams params;

  for (const std::uint64_t seed : {11u, 23u, 47u}) {
    const RandomInstance inst = randomInstance(seed);

    // Serial reference: one throwaway context per variant, exactly the
    // single-solver code path.
    std::vector<Schedule> reference;
    for (const VariantSpec& spec : variants)
      reference.push_back(
          runVariant(inst.gc, inst.profile, inst.deadline, spec, params));

    for (const unsigned threads : {1u, 2u, 8u}) {
      const SolveContext ctx(inst.gc, inst.profile, inst.deadline);
      const std::vector<Schedule> batch =
          runVariants(ctx, variants, params, threads);
      ASSERT_EQ(batch.size(), variants.size());
      for (std::size_t i = 0; i < variants.size(); ++i)
        EXPECT_EQ(batch[i].starts(), reference[i].starts())
            << "variant " << variants[i].name() << " diverged at threads="
            << threads << " (seed " << seed << ")";

      // Repeated run on the already-primed context: still identical —
      // nothing about a previous fan-out may leak into the next.
      const std::vector<Schedule> again =
          runVariants(ctx, variants, params, threads);
      for (std::size_t i = 0; i < variants.size(); ++i)
        EXPECT_EQ(again[i].starts(), reference[i].starts())
            << "variant " << variants[i].name()
            << " diverged on the repeated run at threads=" << threads;
    }
  }
}

TEST(ParallelDeterminism, BatchStatsMatchSerialRuns) {
  const RandomInstance inst = randomInstance(5);
  const std::vector<VariantSpec> variants = allVariants();
  const CaWoParams params;

  const SolveContext serialCtx(inst.gc, inst.profile, inst.deadline);
  std::vector<VariantRunStats> serialStats(variants.size());
  for (std::size_t i = 0; i < variants.size(); ++i)
    (void)runVariant(serialCtx, variants[i], params, &serialStats[i]);

  const SolveContext ctx(inst.gc, inst.profile, inst.deadline);
  std::vector<VariantRunStats> stats;
  (void)runVariants(ctx, variants, params, 8, &stats);
  ASSERT_EQ(stats.size(), variants.size());
  for (std::size_t i = 0; i < variants.size(); ++i) {
    EXPECT_EQ(stats[i].lsRan, variants[i].localSearch);
    if (!stats[i].lsRan) continue;
    // Wall times differ run to run; the search trajectory must not.
    EXPECT_EQ(stats[i].ls.rounds, serialStats[i].ls.rounds);
    EXPECT_EQ(stats[i].ls.movesApplied, serialStats[i].ls.movesApplied);
    EXPECT_EQ(stats[i].ls.initialCost, serialStats[i].ls.initialCost);
    EXPECT_EQ(stats[i].ls.finalCost, serialStats[i].ls.finalCost);
  }
}

// -------------------------------------------------------------------------
// Multi-start local search.
// -------------------------------------------------------------------------

TEST(ParallelDeterminism, RestartsReproduceSerialBestOfNExactly) {
  const RandomInstance inst = randomInstance(31);
  const Schedule base = runVariant(inst.gc, inst.profile, inst.deadline,
                                   VariantSpec{BaseScore::Pressure, true,
                                               true, false});

  LocalSearchOptions opts;
  opts.restarts = 5;

  // threads == 1 *is* the serial best-of-N: the fan-out loop runs inline
  // in restart order. Every other thread count must reproduce it.
  Schedule serial = base;
  opts.threads = 1;
  const LocalSearchStats serialStats =
      localSearchRestarts(inst.gc, inst.profile, inst.deadline, serial, opts);
  EXPECT_EQ(serialStats.restartsRun, 5u);

  for (const unsigned threads : {2u, 8u}) {
    Schedule parallel = base;
    opts.threads = threads;
    const LocalSearchStats stats = localSearchRestarts(
        inst.gc, inst.profile, inst.deadline, parallel, opts);
    EXPECT_EQ(parallel.starts(), serial.starts())
        << "restart merge diverged at threads=" << threads;
    EXPECT_EQ(stats.bestRestart, serialStats.bestRestart);
    EXPECT_EQ(stats.finalCost, serialStats.finalCost);
    EXPECT_EQ(stats.initialCost, serialStats.initialCost);
    EXPECT_EQ(stats.rounds, serialStats.rounds);
    EXPECT_EQ(stats.movesApplied, serialStats.movesApplied);
  }

  // The winner can never lose to the plain single climb — restart 0 *is*
  // the plain climb.
  Schedule plain = base;
  const LocalSearchStats plainStats =
      localSearch(inst.gc, inst.profile, inst.deadline, plain);
  EXPECT_LE(serialStats.finalCost, plainStats.finalCost);
  if (serialStats.bestRestart == 0) {
    EXPECT_EQ(serial.starts(), plain.starts());
  }
}

TEST(ParallelDeterminism, SingleRestartIsPlainLocalSearch) {
  const RandomInstance inst = randomInstance(7);
  const Schedule base = runVariant(inst.gc, inst.profile, inst.deadline,
                                   VariantSpec{BaseScore::Slack, false,
                                               false, false});
  Schedule viaRestarts = base;
  Schedule viaPlain = base;
  LocalSearchOptions opts;
  opts.restarts = 1;
  opts.threads = 8; // must be ignored: nothing to fan out
  const LocalSearchStats a = localSearchRestarts(
      inst.gc, inst.profile, inst.deadline, viaRestarts, opts);
  const LocalSearchStats b =
      localSearch(inst.gc, inst.profile, inst.deadline, viaPlain);
  EXPECT_EQ(viaRestarts.starts(), viaPlain.starts());
  EXPECT_EQ(a.finalCost, b.finalCost);
  EXPECT_EQ(a.restartsRun, 1u);
  EXPECT_EQ(a.bestRestart, 0u);
}

// -------------------------------------------------------------------------
// Wide-window candidate scan: the parallel order-preserving reduce must
// pick the very same move as the serial loop, for both strategies.
// -------------------------------------------------------------------------

TEST(ParallelDeterminism, WideCandidateScanMatchesSerialScan) {
  Rng rng(97);
  // Independent tasks with huge slack: every probe window is thousands of
  // candidates wide, well past the parallel-scan threshold.
  const EnhancedGraph gc = makeIndependentGc({25, 40, 15, 30, 20, 35},
                                             {1, 2, 1, 2, 1, 2},
                                             {5, 3, 6, 2, 4, 7});
  const Time deadline = 4000;
  const PowerProfile profile = randomProfile(deadline, 24, 3, 20, rng);
  Schedule base(gc.numNodes());
  for (TaskId v = 0; v < gc.numNodes(); ++v) base.setStart(v, 0);

  for (const MoveStrategy strategy :
       {MoveStrategy::FirstImprovement, MoveStrategy::BestImprovement}) {
    LocalSearchOptions opts;
    opts.strategy = strategy;
    opts.radius = deadline; // the whole horizon is in reach

    Schedule serial = base;
    opts.threads = 1;
    const LocalSearchStats serialStats =
        localSearch(gc, profile, deadline, serial, opts);

    for (const unsigned threads : {2u, 8u}) {
      Schedule parallel = base;
      opts.threads = threads;
      const LocalSearchStats stats =
          localSearch(gc, profile, deadline, parallel, opts);
      EXPECT_EQ(parallel.starts(), serial.starts())
          << "scan diverged at threads=" << threads << ", strategy="
          << (strategy == MoveStrategy::BestImprovement ? "best" : "first");
      EXPECT_EQ(stats.movesApplied, serialStats.movesApplied);
      EXPECT_EQ(stats.finalCost, serialStats.finalCost);
    }
  }
}

// -------------------------------------------------------------------------
// Shared-context contract.
// -------------------------------------------------------------------------

/// Everything one caller derives from a context: every getter's artifact,
/// all 16 variant schedules and a residual replay.
struct ContextDigest {
  std::vector<Time> est, lst;
  Time asapMakespan = 0;
  Power sumWorkPower = 0;
  std::vector<std::vector<Time>> refined; ///< (begin, end, green) triples
  std::vector<std::vector<TaskId>> orders;
  std::vector<std::vector<std::pair<Time, Power>>> budgetTrees;
  std::vector<Time> windowEst, windowLst;
  std::vector<std::vector<Time>> schedules;
  Cost replayCost = 0;
  std::size_t resolves = 0, accepted = 0;
  Time replayFinish = 0;

  bool operator==(const ContextDigest&) const = default;
};

ContextDigest digestOf(const Instance& inst, const PowerProfile& actual,
                       const SolveContext& ctx) {
  ContextDigest d;
  d.est = ctx.initialEst();
  d.lst = ctx.initialLst();
  d.asapMakespan = ctx.asapMakespan();
  d.sumWorkPower = ctx.sumWorkPower();
  for (const int blockSize : {3, 5}) {
    std::vector<Time> flat;
    for (const Interval& iv : ctx.refinedIntervals(blockSize))
      flat.insert(flat.end(), {iv.begin, iv.end, iv.green});
    d.refined.push_back(std::move(flat));
    for (const bool refined : {true, false})
      d.budgetTrees.push_back(
          ctx.budgetTreePrototype(refined, blockSize).dump());
  }
  const WindowState windows = ctx.windowState();
  d.windowEst = windows.estAll();
  d.windowLst = windows.lstAll();
  for (const VariantSpec& spec : allVariants()) {
    d.orders.push_back(
        ctx.scoreOrder(ScoreOptions{spec.base, spec.weighted}));
    d.schedules.push_back(runVariant(ctx, spec).starts());
  }

  OnlineOptions opts;
  opts.solver = "pressWR";
  opts.policy = "reactive:threshold=0.05";
  opts.runtimeNoise = 0.3;
  opts.clairvoyant = false;
  opts.sharedContext = &ctx;
  const OnlineResult replay = replayOnline(inst, inst.profile, actual, opts);
  EXPECT_TRUE(replay.ran) << replay.error;
  d.replayCost = replay.actualCost;
  d.resolves = replay.resolveCount;
  d.accepted = replay.resolveAccepted;
  d.replayFinish = replay.finishTime;
  return d;
}

TEST(ParallelDeterminism, EightThreadsOnOneUnprimedContextMatchSerial) {
  InstanceSpec spec;
  spec.family = WorkflowFamily::Atacseq;
  spec.targetTasks = 40;
  spec.scenario = "S1";
  spec.deadlineFactor = 1.5;
  spec.numIntervals = 8;
  const Instance inst = buildInstance(spec);
  const PowerProfile actual = generateProfile(
      "S1+noise=0.3,seed=9", instanceProfileRequest(inst));

  const SolveContext serial(inst.gc, inst.profile, inst.deadline);
  const ContextDigest reference = digestOf(inst, actual, serial);
  ASSERT_GT(reference.resolves, 0u) << "the replay never re-solved";

  // Every thread starts on the same unprimed context at once, so first
  // accesses race for every artifact.
  constexpr std::size_t kThreads = 8;
  const SolveContext shared(inst.gc, inst.profile, inst.deadline);
  std::vector<ContextDigest> digests(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      digests[t] = digestOf(inst, actual, shared);
    });
  for (std::thread& t : threads) t.join();
  for (std::size_t t = 0; t < kThreads; ++t)
    EXPECT_TRUE(digests[t] == reference) << "thread " << t << " diverged";
}

} // namespace
} // namespace cawo
