#pragma once

// Pseudo-polynomial reference for the carbon cost (core/carbon_cost.hpp):
// builds the power draw one time unit at a time and sums the brown excess
// per unit, O(T + N). Tests cross-check the library's event sweep against
// it. Test-only; not part of the library.

#include "core/enhanced_graph.hpp"
#include "core/power_profile.hpp"
#include "core/schedule.hpp"
#include "util/types.hpp"

namespace cawo {

Cost evaluateCostReference(const EnhancedGraph& gc, const PowerProfile& profile,
                           const Schedule& s);

} // namespace cawo
