#include <gtest/gtest.h>

#include "util/require.hpp"

#include <algorithm>

#include "core/interval_refinement.hpp"
#include "support/refinement_all_blocks.hpp"
#include "test_util.hpp"

namespace cawo {
namespace {

using testing::makeChainGc;

TEST(Refinement, SingleTaskAlignments) {
  // One task of length 3; boundaries {0, 10, 20}. Start-aligned cuts: the
  // task start equals a boundary (0, 10 — both are existing boundaries, so
  // only interior new cuts matter). End-aligned: starts 10−3=7 and 20−3=17.
  const EnhancedGraph gc = makeChainGc({3});
  PowerProfile p;
  p.appendInterval(10, 5);
  p.appendInterval(10, 2);
  const auto cuts = refinementCutPoints(gc, p, 3);
  EXPECT_TRUE(std::find(cuts.begin(), cuts.end(), 7) != cuts.end());
  EXPECT_TRUE(std::find(cuts.begin(), cuts.end(), 17) != cuts.end());
  EXPECT_TRUE(std::find(cuts.begin(), cuts.end(), 10) == cuts.end())
      << "existing boundaries are not cut points";
  for (const Time c : cuts) {
    EXPECT_GT(c, 0);
    EXPECT_LT(c, 20);
  }
}

TEST(Refinement, BlockAlignmentsCoverInnerTasks) {
  // Chain 2,3 with one interval [0,12). Block {0,1} start-aligned at 0
  // puts task 1 at 2; end-aligned at 12 puts task 0 at 12-5=7 and task 1
  // at 12-3=9.
  const EnhancedGraph gc = makeChainGc({2, 3});
  const PowerProfile p = PowerProfile::uniform(12, 5);
  const auto cuts = refinementCutPoints(gc, p, 2);
  for (const Time expected : {2, 7, 9})
    EXPECT_TRUE(std::find(cuts.begin(), cuts.end(), expected) != cuts.end())
        << "missing cut " << expected;
}

TEST(Refinement, CutsAreSortedAndUnique) {
  const EnhancedGraph gc = makeChainGc({2, 3, 4, 2});
  PowerProfile p;
  p.appendInterval(7, 1);
  p.appendInterval(9, 3);
  p.appendInterval(10, 2);
  const auto cuts = refinementCutPoints(gc, p, 3);
  EXPECT_TRUE(std::is_sorted(cuts.begin(), cuts.end()));
  EXPECT_TRUE(std::adjacent_find(cuts.begin(), cuts.end()) == cuts.end());
}

TEST(Refinement, LargerBlocksProduceAtLeastAsManyCuts) {
  const EnhancedGraph gc = makeChainGc({2, 3, 4, 2, 5});
  const PowerProfile p = PowerProfile::uniform(40, 5);
  const auto c1 = refinementCutPoints(gc, p, 1);
  const auto c2 = refinementCutPoints(gc, p, 2);
  const auto c3 = refinementCutPoints(gc, p, 3);
  EXPECT_LE(c1.size(), c2.size());
  EXPECT_LE(c2.size(), c3.size());
  // k=1 cuts must all appear for k=3 too.
  for (const Time c : c1)
    EXPECT_TRUE(std::find(c3.begin(), c3.end(), c) != c3.end());
}

TEST(Refinement, SplitKeepsCoverageAndBudgets) {
  std::vector<Interval> ivs{{0, 10, 5}, {10, 20, 2}};
  const std::vector<Time> cuts{3, 10, 15, 17};
  const auto refined = splitIntervalsAt(ivs, cuts);
  // Contiguity & coverage.
  ASSERT_FALSE(refined.empty());
  EXPECT_EQ(refined.front().begin, 0);
  EXPECT_EQ(refined.back().end, 20);
  for (std::size_t i = 0; i + 1 < refined.size(); ++i)
    EXPECT_EQ(refined[i].end, refined[i + 1].begin);
  // Budgets inherited from the containing original interval.
  for (const Interval& iv : refined)
    EXPECT_EQ(iv.green, iv.begin < 10 ? 5 : 2);
  // Cuts inside the span became boundaries.
  const auto hasBegin = [&](Time t) {
    return std::any_of(refined.begin(), refined.end(),
                       [&](const Interval& iv) { return iv.begin == t; });
  };
  EXPECT_TRUE(hasBegin(3));
  EXPECT_TRUE(hasBegin(15));
  EXPECT_TRUE(hasBegin(17));
}

TEST(Refinement, RefineIntervalsIsConsistentWithCutPoints) {
  const EnhancedGraph gc = makeChainGc({2, 3});
  PowerProfile p;
  p.appendInterval(6, 4);
  p.appendInterval(6, 1);
  const auto cuts = refinementCutPoints(gc, p, 3);
  const auto refined = refineIntervals(gc, p, 3);
  EXPECT_EQ(refined.size(), p.numIntervals() + cuts.size());
  Time prev = 0;
  for (const Interval& iv : refined) {
    EXPECT_EQ(iv.begin, prev);
    EXPECT_LT(iv.begin, iv.end);
    prev = iv.end;
  }
  EXPECT_EQ(prev, p.horizon());
}

TEST(Refinement, RejectsNonPositiveBlockSize) {
  const EnhancedGraph gc = makeChainGc({2});
  const PowerProfile p = PowerProfile::uniform(10, 1);
  EXPECT_THROW(refinementCutPoints(gc, p, 0), PreconditionError);
}

TEST(Refinement, MultiProcessorCutsUnionOverProcs) {
  // Two procs with different task lengths → union of both cut sets.
  const EnhancedGraph gc =
      testing::makeGc({{0, 3}, {1, 4}}, {}, {1, 1}, {1, 1});
  const PowerProfile p = PowerProfile::uniform(12, 5);
  const auto cuts = refinementCutPoints(gc, p, 3);
  EXPECT_TRUE(std::find(cuts.begin(), cuts.end(), 12 - 3) != cuts.end());
  EXPECT_TRUE(std::find(cuts.begin(), cuts.end(), 12 - 4) != cuts.end());
}

/// Random multi-processor graph: lengths 0..6 (zero-length nodes included)
/// spread over `numProcs` processors, no precedence edges (refinement reads
/// only the processor orders and lengths).
EnhancedGraph randomRefinementGc(int n, int numProcs, Rng& rng) {
  std::vector<std::pair<ProcId, Time>> tasks;
  for (int i = 0; i < n; ++i)
    tasks.push_back({static_cast<ProcId>(rng.uniformInt(0, numProcs - 1)),
                     rng.uniformInt(0, 3) == 0 ? 0 : rng.uniformInt(1, 6)});
  return testing::makeGc(tasks, {}, std::vector<Power>(numProcs, 1),
                         std::vector<Power>(numProcs, 2));
}

TEST(Refinement, CutSetMatchesAllBlocksEmissionOracle) {
  // Emitting each cut once, for its shortest enclosing block, must give
  // exactly the cut set of the all-blocks emission, for every block size.
  Rng rng(20261019);
  for (int i = 0; i < 24; ++i) {
    const int numProcs = static_cast<int>(rng.uniformInt(1, 4));
    const EnhancedGraph gc = randomRefinementGc(
        static_cast<int>(rng.uniformInt(1, 25)), numProcs, rng);
    PowerProfile p;
    const int intervals = static_cast<int>(rng.uniformInt(1, 6));
    for (int j = 0; j < intervals; ++j)
      p.appendInterval(rng.uniformInt(1, 15), rng.uniformInt(0, 9));
    for (int k = 1; k <= 5; ++k) {
      EXPECT_EQ(refinementCutPoints(gc, p, k),
                testing::refinementCutPointsAllBlocks(gc, p, k))
          << "case " << i << ", k = " << k;
      EXPECT_EQ(refinementCutPoints(gc, p, k, /*threads=*/3),
                testing::refinementCutPointsAllBlocks(gc, p, k))
          << "case " << i << ", k = " << k << ", 3 threads";
    }
  }
}

TEST(Refinement, SparsePathMatchesAllBlocksEmissionOracle) {
  // A horizon past the dense mark table's cap takes the collect-and-sort
  // path; its cut set must match the oracle too.
  Rng rng(7);
  const EnhancedGraph gc = randomRefinementGc(30, 3, rng);
  PowerProfile p;
  p.appendInterval(Time(1) << 26, 4);
  p.appendInterval(17, 1);
  p.appendInterval(Time(1) << 25, 6);
  for (int k = 1; k <= 5; ++k)
    EXPECT_EQ(refinementCutPoints(gc, p, k),
              testing::refinementCutPointsAllBlocks(gc, p, k))
        << "k = " << k;
}

} // namespace
} // namespace cawo
