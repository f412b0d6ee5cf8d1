#pragma once

#include <string>
#include <vector>

#include "core/enhanced_graph.hpp"
#include "util/require.hpp"
#include "util/types.hpp"

/// \file schedule.hpp
/// A schedule assigns a start time σ(u) to every node of the enhanced graph
/// (compute *and* communication tasks). Validation checks precedence,
/// deadline, and per-processor exclusivity.

namespace cawo {

class Schedule {
public:
  Schedule() = default;
  explicit Schedule(TaskId numNodes)
      : start_(static_cast<std::size_t>(numNodes), -1) {}

  TaskId numNodes() const { return static_cast<TaskId>(start_.size()); }

  void setStart(TaskId u, Time t) { start_[checked(u)] = t; }
  Time start(TaskId u) const { return start_[checked(u)]; }
  bool isSet(TaskId u) const { return start_[checked(u)] >= 0; }

  /// Completion time of node u (requires the graph for ω(u)).
  Time end(TaskId u, const EnhancedGraph& gc) const {
    return start(u) + gc.len(u);
  }

  /// Latest completion time over all nodes.
  Time makespan(const EnhancedGraph& gc) const;

  const std::vector<Time>& starts() const { return start_; }

private:
  // Defined inline: the accessors above run millions of times per large
  // solve, so only the range check remains, not a call.
  std::size_t checked(TaskId u) const {
    CAWO_REQUIRE(u >= 0 && u < numNodes(), "node id out of range");
    return static_cast<std::size_t>(u);
  }
  std::vector<Time> start_;
};

struct ValidationResult {
  bool ok = true;
  std::string message; ///< empty when ok; first violation otherwise

  explicit operator bool() const { return ok; }
};

/// Check that `s` is a feasible schedule for `gc` under deadline `deadline`:
/// all starts set and non-negative, every node finishes by the deadline,
/// every precedence edge of Gc is respected, and no two nodes overlap on the
/// same (enhanced) processor.
ValidationResult validateSchedule(const EnhancedGraph& gc, const Schedule& s,
                                  Time deadline);

} // namespace cawo
