#pragma once

// Full-scan reference for the local search (core/local_search.cpp): every
// round probes every nonzero-length task, with no dirty-set skipping. The
// climb loop is the historical implementation kept verbatim as the oracle
// for tests/test_local_search_dirty.cpp, which pins that the library climb
// applies the identical move sequence. Test-only; not part of the library.

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "core/enhanced_graph.hpp"
#include "core/local_search.hpp"
#include "core/power_profile.hpp"
#include "core/power_timeline.hpp"
#include "core/schedule.hpp"
#include "util/rng.hpp"

namespace cawo::testing {

/// Legal start window of `v` against the current starts of its neighbours,
/// clamped to ±radius around the current start.
inline std::pair<Time, Time> fullScanMoveWindow(const EnhancedGraph& gc,
                                                Time deadline,
                                                const Schedule& s, TaskId v,
                                                Time len, Time radius) {
  const Time cur = s.start(v);
  Time lo = 0;
  for (TaskId u : gc.preds(v)) lo = std::max(lo, s.end(u, gc));
  Time hi = deadline - len;
  for (TaskId u : gc.succs(v)) hi = std::min(hi, s.start(u) - len);
  lo = std::max(lo, cur - radius);
  hi = std::min(hi, cur + radius);
  return {lo, hi};
}

/// The restart perturbation of `localSearchRestarts`, restated so the
/// reference restarts climb from the same perturbed schedules.
inline void fullScanPerturb(const EnhancedGraph& gc, Time deadline,
                            Schedule& s, Time radius, Rng& rng) {
  for (const TaskId v : gc.topoOrder()) {
    const Time len = gc.len(v);
    if (len == 0) continue;
    if ((rng.next() & 1) == 0) continue;
    const auto [lo, hi] = fullScanMoveWindow(gc, deadline, s, v, len, radius);
    if (lo >= hi) continue;
    s.setStart(v, static_cast<Time>(rng.uniformInt(lo, hi)));
  }
}

/// One climb, probing every task in every round.
inline LocalSearchStats fullScanLocalSearch(const EnhancedGraph& gc,
                                            const PowerProfile& profile,
                                            Time deadline, Schedule& schedule,
                                            const LocalSearchOptions& opts) {
  PowerTimeline timeline(profile, gc.totalIdlePower());
  {
    std::vector<PowerTimeline::Load> loads;
    loads.reserve(static_cast<std::size_t>(gc.numNodes()));
    for (TaskId u = 0; u < gc.numNodes(); ++u)
      loads.push_back({schedule.start(u), schedule.end(u, gc),
                       gc.workPower(gc.procOf(u))});
    timeline.addLoads(loads);
  }

  LocalSearchStats stats;
  stats.initialCost = timeline.totalCost();

  std::vector<CandidateInterval> cands;
  std::vector<Cost> deltas;
  PowerTimeline::PeekScratch peek;

  std::vector<ProcId> procs(static_cast<std::size_t>(gc.numProcs()));
  std::iota(procs.begin(), procs.end(), ProcId{0});
  std::sort(procs.begin(), procs.end(), [&](ProcId a, ProcId b) {
    if (gc.workPower(a) != gc.workPower(b))
      return gc.workPower(a) > gc.workPower(b);
    return a < b;
  });

  while (stats.rounds < opts.maxRounds) {
    ++stats.rounds;
    bool improved = false;
    for (const ProcId p : procs) {
      for (const TaskId v : gc.procOrder(p)) {
        const Time len = gc.len(v);
        if (len == 0) continue;
        const Power w = gc.workPower(p);
        const Time cur = schedule.start(v);
        const auto [lo, hi] =
            fullScanMoveWindow(gc, deadline, schedule, v, len, opts.radius);

        Time bestTarget = cur;
        Cost bestDelta = 0;
        if (hi >= lo) {
          cands.clear();
          for (Time t = lo; t <= hi; ++t) cands.push_back({t, t + len});
          deltas.resize(cands.size());
          timeline.peekMoveDeltas(cur, cur + len, w, cands, peek, deltas);
          for (std::size_t i = 0; i < cands.size(); ++i) {
            const Time t = lo + static_cast<Time>(i);
            if (t == cur) continue;
            if (deltas[i] < bestDelta) {
              bestDelta = deltas[i];
              bestTarget = t;
              if (opts.strategy == MoveStrategy::FirstImprovement) break;
            }
          }
        }
        if (bestDelta < 0) {
          timeline.applyMove(cur, cur + len, bestTarget, bestTarget + len, w);
          schedule.setStart(v, bestTarget);
          ++stats.movesApplied;
          improved = true;
        }
      }
    }
    if (!improved) break;
  }
  stats.finalCost = timeline.totalCost();
  return stats;
}

/// Serial best-of-N over full-scan climbs: restart 0 is unperturbed,
/// restart r climbs from the perturbation drawn from stream
/// `seed + golden·r`; lowest final cost wins, ties to the lowest index.
inline LocalSearchStats fullScanLocalSearchRestarts(
    const EnhancedGraph& gc, const PowerProfile& profile, Time deadline,
    Schedule& schedule, const LocalSearchOptions& opts) {
  const std::size_t restarts = std::max<std::size_t>(1, opts.restarts);
  LocalSearchStats best;
  Schedule bestSchedule = schedule;
  Cost initialCost = 0;
  for (std::size_t r = 0; r < restarts; ++r) {
    Schedule mine = schedule;
    if (r > 0) {
      Rng rng(opts.seed +
              0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(r));
      fullScanPerturb(gc, deadline, mine, opts.radius * 4, rng);
    }
    LocalSearchStats stats =
        fullScanLocalSearch(gc, profile, deadline, mine, opts);
    if (r == 0) initialCost = stats.initialCost;
    if (r == 0 || stats.finalCost < best.finalCost) {
      best = stats;
      best.bestRestart = r;
      bestSchedule = std::move(mine);
    }
  }
  best.initialCost = initialCost;
  best.restartsRun = restarts;
  schedule = std::move(bestSchedule);
  return best;
}

} // namespace cawo::testing
