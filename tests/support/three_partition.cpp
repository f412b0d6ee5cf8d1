#include "three_partition.hpp"

#include <numeric>

#include "util/require.hpp"

namespace cawo {

std::string validateThreePartition(const ThreePartitionInstance& inst) {
  if (inst.items.size() % 3 != 0 || inst.items.empty())
    return "item count must be a positive multiple of 3";
  const auto n = inst.items.size() / 3;
  const Work total =
      std::accumulate(inst.items.begin(), inst.items.end(), Work{0});
  if (total != static_cast<Work>(n) * inst.bound)
    return "sum of items must equal n*B";
  for (const Work x : inst.items) {
    if (4 * x <= inst.bound || 2 * x >= inst.bound)
      return "every item must satisfy B/4 < x < B/2";
  }
  return {};
}

UcasInstance buildUcasInstance(const ThreePartitionInstance& inst) {
  const std::string err = validateThreePartition(inst);
  CAWO_REQUIRE(err.empty(), "invalid 3-Partition instance: " + err);
  const auto m = inst.items.size(); // 3n tasks and processors
  const auto n = m / 3;

  std::vector<EnhancedGraph::Node> nodes(m);
  std::vector<std::vector<TaskId>> orders(m);
  for (std::size_t i = 0; i < m; ++i) {
    nodes[i].original = static_cast<TaskId>(i);
    nodes[i].proc = static_cast<ProcId>(i);
    nodes[i].len = inst.items[i];
    orders[i] = {static_cast<TaskId>(i)};
  }
  // Uniform power: P_idle = 0, P_work = 1 (Theorem 4.3).
  std::vector<Power> idle(m, 0);
  std::vector<Power> work(m, 1);

  UcasInstance out{
      EnhancedGraph::fromParts(std::move(nodes), {}, std::move(idle),
                               std::move(work), std::move(orders)),
      PowerProfile{}, 0};

  // Horizon: n intervals of length B with budget 1, separated by n−1
  // intervals of length 1 with budget 0. T = nB + n − 1.
  for (std::size_t k = 0; k < n; ++k) {
    out.profile.appendInterval(inst.bound, 1);
    if (k + 1 < n) out.profile.appendInterval(1, 0);
  }
  out.deadline = out.profile.horizon();
  return out;
}

} // namespace cawo
