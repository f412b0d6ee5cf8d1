#pragma once

#include <string>
#include <vector>

#include "sim/instance.hpp"
#include "solver/solver.hpp"

/// \file runner.hpp
/// Experiment-grid helpers shared by the campaign engine (exp/), the
/// figure binaries and the repository benchmark: the paper's solver suite,
/// the per-instance capability filter and the paper's instance grid.
/// Running a grid is `runCampaign`'s job (exp/campaign_runner.hpp).

namespace cawo {

/// The bench/figure selection: "ASAP" followed by the 16 CaWoSched
/// variants in canonical order.
std::vector<std::string> suiteSolverNames();

/// True if a solver with these capabilities can run on the instance —
/// e.g. the single-processor "dp" does not fit a multi-processor enhanced
/// graph. Broad selections ("all") skip such solvers on every path.
bool solverFitsInstance(const SolverInfo& info, const Instance& instance);

/// The paper's default experiment grid: every (scenario × deadline factor)
/// combination — 16 power profiles per workflow/cluster pair.
std::vector<InstanceSpec> fullGrid(WorkflowFamily family, int targetTasks,
                                   int nodesPerType, std::uint64_t seed,
                                   int numIntervals = 24);

} // namespace cawo
