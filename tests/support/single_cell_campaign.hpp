#pragma once

// A campaign whose cross-product is exactly one instance: every axis holds
// the cell's single value. Lets tests run a hand-picked InstanceSpec
// through the campaign runner. Test-only; not part of the library.

#include <string>

#include "exp/campaign.hpp"
#include "sim/instance.hpp"

namespace cawo {

inline CampaignSpec singleCellCampaign(const InstanceSpec& cell,
                                       const std::string& algos = "suite") {
  CampaignSpec spec;
  spec.name = cell.label();
  spec.families = {cell.family};
  spec.tasks = {cell.targetTasks};
  spec.nodesPerType = {cell.nodesPerType};
  spec.scenarios = {cell.scenario};
  spec.deadlineFactors = {cell.deadlineFactor};
  spec.seeds = {cell.seed};
  spec.numIntervals = cell.numIntervals;
  spec.algos = algos;
  return spec;
}

} // namespace cawo
