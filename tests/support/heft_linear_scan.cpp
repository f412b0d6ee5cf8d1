#include "heft_linear_scan.hpp"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "util/require.hpp"

namespace cawo::testing {

namespace {

/// Scheduled busy slots on one processor, kept sorted by start time.
struct ProcTimeline {
  std::vector<std::pair<Time, Time>> slots; // (start, end)

  /// Earliest start ≥ ready that fits `len` with the insertion policy.
  Time earliestFit(Time ready, Time len) const {
    Time candidate = ready;
    for (const auto& [s, e] : slots) {
      if (candidate + len <= s) return candidate; // fits in the gap
      candidate = std::max(candidate, e);
    }
    return candidate;
  }

  void insert(Time start, Time end) {
    const auto it = std::lower_bound(
        slots.begin(), slots.end(), std::make_pair(start, end));
    slots.insert(it, {start, end});
  }
};

} // namespace

HeftResult runHeftLinearScan(const TaskGraph& graph, const Platform& platform) {
  const TaskId n = graph.numTasks();
  const ProcId P = platform.numProcessors();
  CAWO_REQUIRE(P >= 1, "platform has no processors");

  const std::vector<double> rank = heftUpwardRanks(graph, platform);
  std::vector<TaskId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), TaskId{0});
  std::stable_sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    const double ra = rank[static_cast<std::size_t>(a)];
    const double rb = rank[static_cast<std::size_t>(b)];
    if (ra != rb) return ra > rb;
    return a < b;
  });

  std::vector<ProcTimeline> timelines(static_cast<std::size_t>(P));
  std::vector<ProcId> procOf(static_cast<std::size_t>(n), kInvalidProc);
  std::vector<Time> ast(static_cast<std::size_t>(n), 0);
  std::vector<Time> aft(static_cast<std::size_t>(n), 0);

  for (const TaskId v : order) {
    Time bestEft = kTimeInfinity;
    Time bestStart = 0;
    ProcId bestProc = 0;
    for (ProcId p = 0; p < P; ++p) {
      Time ready = 0;
      for (const std::size_t ei : graph.inEdges(v)) {
        const auto& e = graph.edges()[ei];
        const auto iu = static_cast<std::size_t>(e.src);
        CAWO_ASSERT(procOf[iu] != kInvalidProc,
                    "HEFT rank order must schedule predecessors first");
        const Time comm = (procOf[iu] == p) ? 0 : e.data;
        ready = std::max(ready, aft[iu] + comm);
      }
      const Time len = platform.execTime(graph.work(v), p);
      const Time start = timelines[static_cast<std::size_t>(p)].earliestFit(
          ready, len);
      const Time eft = start + len;
      if (eft < bestEft) {
        bestEft = eft;
        bestStart = start;
        bestProc = p;
      }
    }
    const auto ivx = static_cast<std::size_t>(v);
    procOf[ivx] = bestProc;
    ast[ivx] = bestStart;
    aft[ivx] = bestEft;
    timelines[static_cast<std::size_t>(bestProc)].insert(bestStart, bestEft);
  }

  HeftResult res{Mapping(n, P), std::move(ast), std::move(aft), 0};
  std::vector<std::vector<TaskId>> perProc(static_cast<std::size_t>(P));
  for (TaskId v = 0; v < n; ++v)
    perProc[static_cast<std::size_t>(procOf[static_cast<std::size_t>(v)])]
        .push_back(v);
  for (ProcId p = 0; p < P; ++p) {
    auto& tasks = perProc[static_cast<std::size_t>(p)];
    std::sort(tasks.begin(), tasks.end(), [&](TaskId a, TaskId b) {
      const Time sa = res.startTimes[static_cast<std::size_t>(a)];
      const Time sb = res.startTimes[static_cast<std::size_t>(b)];
      if (sa != sb) return sa < sb;
      return a < b;
    });
    for (const TaskId v : tasks) res.mapping.assign(v, p);
  }
  for (TaskId v = 0; v < n; ++v)
    res.makespan =
        std::max(res.makespan, res.finishTimes[static_cast<std::size_t>(v)]);
  return res;
}

} // namespace cawo::testing
