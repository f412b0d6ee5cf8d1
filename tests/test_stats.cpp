#include <gtest/gtest.h>

#include "util/require.hpp"

#include "exp/campaign_runner.hpp"
#include "sim/stats.hpp"

namespace cawo {
namespace {

CostMatrix smallMatrix() {
  CostMatrix m;
  m.algorithms = {"A", "B", "C"};
  m.costs = {
      {10, 5, 5},  // B and C tie for rank 1; A is rank 3
      {0, 0, 4},   // A and B tie at 0
      {6, 8, 2},
  };
  return m;
}

TEST(Stats, RankDistributionUsesCompetitionRanking) {
  const auto counts = rankDistribution(smallMatrix());
  // Instance 0: A rank 3, B rank 1, C rank 1 (rank 2 skipped).
  // Instance 1: A rank 1, B rank 1, C rank 3.
  // Instance 2: A rank 2, B rank 3, C rank 1.
  EXPECT_EQ(counts[0][0], 1); // A first once
  EXPECT_EQ(counts[0][1], 1);
  EXPECT_EQ(counts[0][2], 1);
  EXPECT_EQ(counts[1][0], 2); // B first twice
  EXPECT_EQ(counts[1][2], 1);
  EXPECT_EQ(counts[2][0], 2); // C first twice
  EXPECT_EQ(counts[2][2], 1);
}

TEST(Stats, PerformanceProfileBoundaryValues) {
  const auto profile =
      performanceProfile(smallMatrix(), {0.0, 0.5, 1.0});
  // τ=0: every algorithm qualifies on every instance except where ratio is
  // 0... ratio(best/own): instance 1 C: best 0, own 4 → 0 ≥ 0 → counts.
  for (std::size_t a = 0; a < 3; ++a) EXPECT_DOUBLE_EQ(profile[a][0], 1.0);
  // τ=1: fraction of instances where the algorithm attains the best cost.
  EXPECT_DOUBLE_EQ(profile[0][2], 1.0 / 3); // A best on instance 1 only
  EXPECT_DOUBLE_EQ(profile[1][2], 2.0 / 3);
  EXPECT_DOUBLE_EQ(profile[2][2], 2.0 / 3);
}

TEST(Stats, PerformanceProfileZeroCostCountsAsOptimal) {
  CostMatrix m;
  m.algorithms = {"A", "B"};
  m.costs = {{0, 0}};
  const auto profile = performanceProfile(m, {1.0});
  EXPECT_DOUBLE_EQ(profile[0][0], 1.0);
  EXPECT_DOUBLE_EQ(profile[1][0], 1.0);
}

TEST(Stats, RatiosVsBaselineSkipsUndefined) {
  CostMatrix m;
  m.algorithms = {"base", "algo"};
  m.costs = {
      {10, 6}, // 0.6
      {0, 0},  // 1.0 (both zero)
      {0, 5},  // skipped: cannot divide by zero baseline
      {4, 8},  // 2.0 (baseline wins)
  };
  const auto ratios = ratiosVsBaseline(m, 0, 1);
  ASSERT_EQ(ratios.size(), 3u);
  EXPECT_DOUBLE_EQ(ratios[0], 0.6);
  EXPECT_DOUBLE_EQ(ratios[1], 1.0);
  EXPECT_DOUBLE_EQ(ratios[2], 2.0);
}

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(medianOf({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(medianOf({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(medianOf({7.0}), 7.0);
  EXPECT_THROW(medianOf({}), PreconditionError);
}

TEST(Stats, MeanIsArithmetic) {
  EXPECT_DOUBLE_EQ(meanOf({1.0, 2.0, 3.0}), 2.0);
  EXPECT_THROW(meanOf({}), PreconditionError);
}

TEST(Stats, BoxStatsQuartilesAndOutliers) {
  // 1..8 plus a far outlier.
  const BoxStats s = boxStats({1, 2, 3, 4, 5, 6, 7, 8, 100});
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.median, 5.0);
  EXPECT_EQ(s.outliers.size(), 1u);
  EXPECT_DOUBLE_EQ(s.outliers[0], 100.0);
  EXPECT_LE(s.whiskerHi, 8.0);
}

TEST(Stats, BoxStatsSingleValue) {
  const BoxStats s = boxStats({4.2});
  EXPECT_DOUBLE_EQ(s.min, 4.2);
  EXPECT_DOUBLE_EQ(s.q1, 4.2);
  EXPECT_DOUBLE_EQ(s.median, 4.2);
  EXPECT_DOUBLE_EQ(s.q3, 4.2);
  EXPECT_TRUE(s.outliers.empty());
}

// toCostMatrix (exp/campaign_runner.hpp) feeds these statistics from a
// campaign outcome: 2 instances (seeds 0 and 1) × solvers A, B with costs
// 1, 2 / 3, 4.
CampaignOutcome twoByTwoOutcome() {
  CampaignOutcome outcome;
  outcome.solvers = {"A", "B"};
  outcome.numInstances = 2;
  outcome.records.resize(4);
  for (std::size_t c = 0; c < 4; ++c) {
    CampaignRecord& record = outcome.records[c];
    record.spec.seed = c / 2;
    record.solver = outcome.solvers[c % 2];
    record.cost = static_cast<Cost>(c + 1);
    record.feasible = true;
  }
  return outcome;
}

TEST(Stats, ToCostMatrixReadsCampaignRecords) {
  const CampaignOutcome outcome = twoByTwoOutcome();
  const CostMatrix m = toCostMatrix(outcome);
  EXPECT_EQ(m.algorithms, (std::vector<std::string>{"A", "B"}));
  ASSERT_EQ(m.numInstances(), 2u);
  EXPECT_EQ(m.costs[1][0], 3);

  const CostMatrix second = toCostMatrix(
      outcome, [](const InstanceSpec& s) { return s.seed == 1; });
  ASSERT_EQ(second.numInstances(), 1u);
  EXPECT_EQ(second.costs[0][1], 4);
  EXPECT_EQ(
      toCostMatrix(outcome, [](const InstanceSpec&) { return false; })
          .numInstances(),
      0u);
}

TEST(Stats, ToCostMatrixChecksConsistency) {
  CampaignOutcome outcome = twoByTwoOutcome();
  // Skipped on every instance: the solver is left out.
  outcome.records[1].skipped = true;
  outcome.records[3].skipped = true;
  EXPECT_EQ(toCostMatrix(outcome).algorithms,
            (std::vector<std::string>{"A"}));
  // Skipped on only some instances: the column would be ragged.
  outcome.records[3].skipped = false;
  EXPECT_THROW(toCostMatrix(outcome), PreconditionError);

  // A cell that ran but produced an invalid schedule is a library bug.
  outcome = twoByTwoOutcome();
  outcome.records[2].feasible = false;
  EXPECT_THROW(toCostMatrix(outcome), InvariantError);

  // A record-free outcome (a store summary) has no matrix.
  outcome.records.clear();
  EXPECT_THROW(toCostMatrix(outcome), PreconditionError);
}

} // namespace
} // namespace cawo
