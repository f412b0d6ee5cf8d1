#include "core/schedule.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace cawo {

Time Schedule::makespan(const EnhancedGraph& gc) const {
  Time m = 0;
  for (TaskId u = 0; u < numNodes(); ++u)
    if (isSet(u)) m = std::max(m, end(u, gc));
  return m;
}

ValidationResult validateSchedule(const EnhancedGraph& gc, const Schedule& s,
                                  Time deadline) {
  auto fail = [](std::string msg) {
    return ValidationResult{false, std::move(msg)};
  };
  if (s.numNodes() != gc.numNodes())
    return fail("schedule size does not match graph");

  for (TaskId u = 0; u < gc.numNodes(); ++u) {
    if (!s.isSet(u))
      return fail("node " + std::to_string(u) + " has no start time");
    if (s.end(u, gc) > deadline)
      return fail("node " + std::to_string(u) + " finishes at " +
                  std::to_string(s.end(u, gc)) + " past deadline " +
                  std::to_string(deadline));
  }

  for (TaskId u = 0; u < gc.numNodes(); ++u) {
    for (TaskId v : gc.succs(u)) {
      if (s.start(v) < s.end(u, gc))
        return fail("precedence violated: node " + std::to_string(v) +
                    " starts at " + std::to_string(s.start(v)) +
                    " before predecessor " + std::to_string(u) +
                    " completes at " + std::to_string(s.end(u, gc)));
    }
  }

  // Exclusivity per enhanced processor. The ordering chain edges normally
  // already enforce this; checking explicitly guards fromParts-built graphs
  // and catches library bugs.
  for (ProcId p = 0; p < gc.numProcs(); ++p) {
    std::vector<TaskId> tasks(gc.procOrder(p).begin(), gc.procOrder(p).end());
    std::sort(tasks.begin(), tasks.end(),
              [&](TaskId a, TaskId b) { return s.start(a) < s.start(b); });
    for (std::size_t i = 0; i + 1 < tasks.size(); ++i) {
      if (s.end(tasks[i], gc) > s.start(tasks[i + 1]))
        return fail("nodes " + std::to_string(tasks[i]) + " and " +
                    std::to_string(tasks[i + 1]) + " overlap on processor " +
                    std::to_string(p));
    }
  }
  return {};
}

} // namespace cawo
