#include "core/platform.hpp"

#include <algorithm>

#include "util/require.hpp"
#include "util/strings.hpp"

namespace cawo {

ProcId Platform::addProcessor(ProcessorSpec spec) {
  CAWO_REQUIRE(spec.speed >= 1, "processor speed must be >= 1");
  CAWO_REQUIRE(spec.idlePower >= 0 && spec.workPower >= 0,
               "power values must be non-negative");
  procs_.push_back(std::move(spec));
  return static_cast<ProcId>(procs_.size() - 1);
}

const ProcessorSpec& Platform::proc(ProcId p) const {
  CAWO_REQUIRE(p >= 0 && p < numProcessors(), "processor id out of range");
  return procs_[static_cast<std::size_t>(p)];
}

Time Platform::execTime(Work work, ProcId p) const {
  const ProcessorSpec& s = proc(p);
  if (work <= 0) return 0;
  return (work + s.speed - 1) / s.speed;
}

Power Platform::totalIdlePower() const {
  Power sum = 0;
  for (const auto& s : procs_) sum += s.idlePower;
  return sum;
}

Power Platform::totalWorkPower() const {
  Power sum = 0;
  for (const auto& s : procs_) sum += s.workPower;
  return sum;
}

Power Platform::maxCombinedPower() const {
  Power best = 0;
  for (const auto& s : procs_) best = std::max(best, s.idlePower + s.workPower);
  return best;
}

const std::vector<ProcessorSpec>& Platform::paperTypes() {
  // Table 1 of the paper, verbatim.
  static const std::vector<ProcessorSpec> kTypes = {
      {"PT1", 4, 40, 10},  {"PT2", 6, 60, 30},   {"PT3", 8, 80, 40},
      {"PT4", 12, 120, 50}, {"PT5", 16, 150, 70}, {"PT6", 32, 200, 100},
  };
  return kTypes;
}

Platform Platform::scaled(int nodesPerType) {
  CAWO_REQUIRE(nodesPerType >= 1, "need at least one node per type");
  Platform pf;
  for (const auto& t : paperTypes()) {
    for (int i = 0; i < nodesPerType; ++i) {
      ProcessorSpec s = t;
      s.type = t.type + "_" + std::to_string(i);
      pf.addProcessor(std::move(s));
    }
  }
  return pf;
}

Platform Platform::paperSmall() { return scaled(12); }

Platform Platform::paperLarge() { return scaled(24); }

Platform Platform::uniform(int numProcs, std::int64_t speed, Power idle,
                           Power work) {
  CAWO_REQUIRE(numProcs >= 1, "need at least one processor");
  Platform pf;
  for (int i = 0; i < numProcs; ++i) {
    pf.addProcessor({indexedName("U", i), speed, idle, work});
  }
  return pf;
}

} // namespace cawo
