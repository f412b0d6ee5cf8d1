#include "sim/runner.hpp"

#include "core/cawosched.hpp"

namespace cawo {

std::vector<std::string> suiteSolverNames() {
  std::vector<std::string> names{"ASAP"};
  for (const VariantSpec& v : allVariants()) names.push_back(v.name());
  return names;
}

bool solverFitsInstance(const SolverInfo& info, const Instance& instance) {
  return !(info.singleProcOnly && instance.gc.numProcs() != 1);
}

std::vector<InstanceSpec> fullGrid(WorkflowFamily family, int targetTasks,
                                   int nodesPerType, std::uint64_t seed,
                                   int numIntervals) {
  std::vector<InstanceSpec> specs;
  for (const std::string& sc : paperScenarioNames()) {
    for (const double f : {1.0, 1.5, 2.0, 3.0}) {
      InstanceSpec spec;
      spec.family = family;
      spec.targetTasks = targetTasks;
      spec.nodesPerType = nodesPerType;
      spec.scenario = sc;
      spec.deadlineFactor = f;
      spec.numIntervals = numIntervals;
      spec.seed = seed;
      specs.push_back(spec);
    }
  }
  return specs;
}

} // namespace cawo
