#pragma once

// Linear-scan reference for HEFT (heft/heft.cpp): the processor-selection
// phase with the historical insertion search that scans every busy slot
// of a processor from the first. The library skips the slots that end by
// the task's ready time; tests/test_heft.cpp pins that both produce the
// same mapping, start and finish times. Test-only; not part of the
// library.

#include "core/platform.hpp"
#include "core/task_graph.hpp"
#include "heft/heft.hpp"

namespace cawo::testing {

HeftResult runHeftLinearScan(const TaskGraph& graph, const Platform& platform);

} // namespace cawo::testing
