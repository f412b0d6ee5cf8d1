#pragma once

// All-blocks reference for the interval refinement
// (core/interval_refinement.cpp): the historical emission loop, kept
// verbatim, that emits a task's cut once for every enclosing block of up
// to k tasks, followed by a plain sort + unique + boundary difference. The
// library emits each cut once, for the shortest enclosing block;
// tests/test_refinement.cpp pins that both yield the same cut set.
// Test-only; not part of the library.

#include <algorithm>
#include <iterator>
#include <vector>

#include "core/enhanced_graph.hpp"
#include "core/power_profile.hpp"
#include "util/types.hpp"

namespace cawo::testing {

/// Every candidate cut point of processor `p`, with duplicates.
template <typename Emit>
void emitCutsForProcAllBlocks(const EnhancedGraph& gc,
                              const std::vector<Time>& boundaries,
                              Time horizon, int k, ProcId p, Emit&& emit) {
  const auto order = gc.procOrder(p);
  const std::size_t np = order.size();
  if (np == 0) return;

  std::vector<Time> prefix(np + 1);
  prefix[0] = 0;
  for (std::size_t i = 0; i < np; ++i)
    prefix[i + 1] = prefix[i] + gc.len(order[i]);

  for (std::size_t first = 0; first < np; ++first) {
    const std::size_t lastLimit =
        std::min(np, first + static_cast<std::size_t>(k));
    for (std::size_t last = first + 1; last <= lastLimit; ++last) {
      // Block covers order[first .. last-1].
      const Time blockLen = prefix[last] - prefix[first];
      for (const Time e : boundaries) {
        // Block starts at e: task m starts at e + (prefix[m]-prefix[first])
        if (e + blockLen <= horizon) {
          for (std::size_t m = first; m < last; ++m) {
            const Time t = e + (prefix[m] - prefix[first]);
            if (t > 0 && t < horizon) emit(t);
          }
        }
        // Block ends at e: task m starts at e − (prefix[last]-prefix[m]).
        if (e - blockLen >= 0) {
          for (std::size_t m = first; m < last; ++m) {
            const Time t = e - (prefix[last] - prefix[m]);
            if (t > 0 && t < horizon) emit(t);
          }
        }
      }
    }
  }
}

/// The sorted new cut points (interval boundaries excluded).
inline std::vector<Time> refinementCutPointsAllBlocks(
    const EnhancedGraph& gc, const PowerProfile& profile, int k) {
  const Time horizon = profile.horizon();
  const std::vector<Time> boundaries = profile.boundaries();
  std::vector<Time> cuts;
  for (ProcId p = 0; p < gc.numProcs(); ++p)
    emitCutsForProcAllBlocks(gc, boundaries, horizon, k, p,
                             [&](Time t) { cuts.push_back(t); });
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::vector<Time> sortedBoundaries = boundaries;
  std::sort(sortedBoundaries.begin(), sortedBoundaries.end());
  std::vector<Time> fresh;
  std::set_difference(cuts.begin(), cuts.end(), sortedBoundaries.begin(),
                      sortedBoundaries.end(), std::back_inserter(fresh));
  return fresh;
}

} // namespace cawo::testing
