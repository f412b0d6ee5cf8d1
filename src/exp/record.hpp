#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/instance.hpp"
#include "util/types.hpp"

/// \file record.hpp
/// The campaign result cell (`CampaignRecord`) and its per-solver
/// aggregate (`SolverSummary`) — the value types of the
/// `cawosched-campaign-v1` result schema (docs/formats.md).
///
/// They live apart from the campaign runner so the layers that only move
/// records around — the JSON line codec (exp/record_json), the result
/// store (exp/store) and the summary accumulator (exp/summary) — do not
/// depend on the solver machinery the runner pulls in.

namespace cawo {

/// One (instance, solver) result cell of a campaign.
struct CampaignRecord {
  InstanceSpec spec;        ///< the instance's axes
  std::string instance;     ///< InstanceSpec::label()
  Time deadline = 0;        ///< ceil(deadlineFactor · D)
  Time asapMakespanD = 0;   ///< the paper's D
  TaskId numNodes = 0;      ///< enhanced-graph nodes (incl. comm tasks)
  /// Canonical 64-bit instance hash (core/instance_hash) — written as 16
  /// hex digits so records for the same built instance can be joined
  /// across campaigns (and against serve responses) without re-building.
  std::uint64_t instanceHash = 0;
  Cost lowerBound = 0;      ///< carbonLowerBound of the instance

  std::string solver;       ///< registry name as selected
  Cost cost = 0;
  double wallMs = 0.0;
  bool feasible = false;    ///< schedule validated against the deadline
  bool provedOptimal = false;
  bool skipped = false;     ///< capability mismatch — no run happened
  /// Cost of the baseline (first selected solver) on the same instance;
  /// meaningful only when `hasBaseline` — written as null in JSON
  /// otherwise (0 is a legitimate cost, not a sentinel).
  Cost baselineCost = 0;
  /// True when the baseline solver ran feasibly on this instance.
  bool hasBaseline = false;
  /// cost / baselineCost; NaN when undefined (no feasible baseline,
  /// baseline 0 with own cost > 0, own solve infeasible, or the cell was
  /// skipped). Written as null in JSON.
  double ratioVsBaseline = 0.0;

  /// Greedy/local-search phase split, harvested from the solver stats map
  /// ("greedy-us"/"ls-us"): present for CaWoSched-style solvers
  /// (`hasPhaseSplit`), null in JSON otherwise. `lsMs` and the
  /// `LocalSearchStats` mirror below are only meaningful for -LS variants
  /// (`hasLocalSearch`).
  bool hasPhaseSplit = false;
  double greedyMs = 0.0;
  double lsMs = 0.0;
  bool hasLocalSearch = false;
  std::int64_t lsRounds = 0;      ///< rounds incl. the final gainless one
  std::int64_t lsMoves = 0;       ///< improving moves applied
  Cost lsInitialCost = 0;         ///< carbon cost entering local search
  Cost lsFinalCost = 0;           ///< carbon cost leaving local search

  /// Online replay fields (campaign `online` mode): present iff
  /// `hasOnline`, null/absent in offline records — the offline JSON
  /// schema is byte-stable. In online records `cost` is the *actual*
  /// (billed) cost and `feasible` means "ran and met the deadline".
  bool hasOnline = false;
  std::string policy;          ///< rescheduling policy spec
  std::string actualScenario;  ///< actual-profile spec ("" = pair)
  Cost forecastCost = 0;       ///< offline plan cost vs the forecast
  Cost clairvoyantCost = 0;    ///< same solver solved against actuals
  bool clairvoyantFeasible = false;
  Cost regret = 0;             ///< cost − clairvoyantCost
  double regretRatio = 0.0;    ///< cost / clairvoyantCost; NaN undefined
  std::int64_t resolves = 0;   ///< re-solve attempts
  std::int64_t resolvesAccepted = 0;
  double resolveWallMs = 0.0;  ///< Σ wall time over re-solves
  bool deadlineMet = false;
  Time finishTime = 0;
};

/// Per-solver aggregate over every instance the solver ran on.
struct SolverSummary {
  std::string solver;
  int instances = 0;   ///< cells actually run (not skipped)
  int wins = 0;        ///< cells with the minimum cost (ties count for all)
  double medianRatio = 0.0; ///< median cost ratio vs the baseline solver
  double meanRatio = 0.0;
  double totalWallMs = 0.0;
  /// Median ratio restricted to each scenario that occurs in the campaign,
  /// aligned with CampaignOutcome::scenarios.
  std::vector<double> medianRatioByScenario;
};

} // namespace cawo
