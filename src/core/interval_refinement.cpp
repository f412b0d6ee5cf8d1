#include "core/interval_refinement.hpp"

#include <algorithm>
#include <atomic>

#include "util/parallel.hpp"
#include "util/require.hpp"

namespace cawo {

namespace {

/// Emit every candidate cut point of processor `p` into `emit(t)`,
/// t guaranteed in (0, horizon). Shared by the dense and sparse paths.
template <typename Emit>
void emitCutsForProc(const EnhancedGraph& gc,
                     const std::vector<Time>& boundaries, Time horizon, int k,
                     ProcId p, Emit&& emit) {
  const auto order = gc.procOrder(p);
  const std::size_t np = order.size();
  if (np == 0) return;

  // Prefix lengths of the processor's task sequence for O(1) block sums.
  // Thread-local so the worker that handles many processors allocates the
  // buffer once, not once per processor.
  thread_local std::vector<Time> prefix;
  prefix.resize(np + 1);
  prefix[0] = 0;
  for (std::size_t i = 0; i < np; ++i)
    prefix[i + 1] = prefix[i] + gc.len(order[i]);

  // A block order[first .. last-1] aligned at boundary e places task m at
  // e + (prefix[m] − prefix[first]) (start-aligned, needs the block to end
  // by the horizon) or at e − (prefix[last] − prefix[m]) (end-aligned,
  // needs the block to start at or after 0). Every block containing m
  // yields the same start-aligned cut for a given `first`, and the same
  // end-aligned cut for a given `last`, so each cut is emitted once, for
  // the shortest such block — last = m+1, respectively first = m — which
  // fits whenever any longer one does. Block lengths grow with the block,
  // so the first misfit ends each scan.
  for (std::size_t first = 0; first < np; ++first) {
    const std::size_t lastLimit =
        std::min(np, first + static_cast<std::size_t>(k));
    for (const Time e : boundaries) {
      // Start-aligned at e: task m, shortest block first .. m.
      for (std::size_t m = first; m < lastLimit; ++m) {
        if (e + (prefix[m + 1] - prefix[first]) > horizon) break;
        const Time t = e + (prefix[m] - prefix[first]);
        if (t > 0 && t < horizon) emit(t);
      }
      // End-aligned at e: task `first`, shortest block first .. last-1.
      for (std::size_t last = first + 1; last <= lastLimit; ++last) {
        const Time t = e - (prefix[last] - prefix[first]);
        if (t < 0) break;
        if (t > 0 && t < horizon) emit(t);
      }
    }
  }
}

/// Horizon cap for the dense mark table (bytes). Block-alignment emits
/// O(procs · np · k · |boundaries|) candidate times, many of them shared
/// between processors; below this cap a byte-per-time-unit table replaces the
/// collect-then-sort entirely, and because marking is idempotent and
/// commutative the result is independent of emission order — and thus of
/// the thread count.
constexpr Time kDenseHorizonLimit = Time(1) << 26;

} // namespace

std::vector<Time> refinementCutPoints(const EnhancedGraph& gc,
                                      const PowerProfile& profile, int k,
                                      unsigned threads,
                                      RefinementScratch* scratch) {
  CAWO_REQUIRE(k >= 1, "block size must be at least 1");
  const Time horizon = profile.horizon();
  const std::vector<Time> boundaries = profile.boundaries();
  const std::size_t numProcs = static_cast<std::size_t>(gc.numProcs());

  if (horizon > 0 && horizon <= kDenseHorizonLimit) {
    // Dense path: one byte per time unit, written through relaxed
    // `atomic_ref`s. Relaxed is enough — every writer stores the same value
    // and parallelFor's join synchronises the (plain) readers below. The
    // table lives in the caller's scratch when given, so repeated
    // refinements reuse the allocation instead of faulting a fresh one.
    const auto n = static_cast<std::size_t>(horizon);
    RefinementScratch local;
    RefinementScratch& s = scratch != nullptr ? *scratch : local;
    s.marks.assign(n, 0);
    std::uint8_t* const marks = s.marks.data();
    parallelFor(numProcs, threads, [&](std::size_t p) {
      emitCutsForProc(gc, boundaries, horizon, k, static_cast<ProcId>(p),
                      [&](Time t) {
                        std::atomic_ref<std::uint8_t>(
                            marks[static_cast<std::size_t>(t)])
                            .store(1, std::memory_order_relaxed);
                      });
    });
    // Times that are already interval boundaries are not *new* cut points.
    for (const Time b : boundaries)
      if (b > 0 && b < horizon) marks[static_cast<std::size_t>(b)] = 0;
    std::vector<Time> fresh;
    for (std::size_t t = 1; t < n; ++t)
      if (marks[t]) fresh.push_back(static_cast<Time>(t));
    return fresh;
  }

  // Sparse fallback (very long horizons): collect per processor, then
  // sort + unique. Still deterministic — per-processor buckets are merged
  // in processor order regardless of completion order.
  std::vector<std::vector<Time>> perProc(numProcs);
  parallelFor(numProcs, threads, [&](std::size_t p) {
    emitCutsForProc(gc, boundaries, horizon, k, static_cast<ProcId>(p),
                    [&](Time t) { perProc[p].push_back(t); });
  });
  std::vector<Time> cuts;
  for (const auto& bucket : perProc)
    cuts.insert(cuts.end(), bucket.begin(), bucket.end());
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::vector<Time> sortedBoundaries = boundaries;
  std::sort(sortedBoundaries.begin(), sortedBoundaries.end());
  std::vector<Time> fresh;
  fresh.reserve(cuts.size());
  std::set_difference(cuts.begin(), cuts.end(), sortedBoundaries.begin(),
                      sortedBoundaries.end(), std::back_inserter(fresh));
  return fresh;
}

std::vector<Interval> splitIntervalsAt(std::span<const Interval> intervals,
                                       const std::vector<Time>& cuts) {
  std::vector<Interval> out;
  out.reserve(intervals.size() + cuts.size());
  std::size_t ci = 0;
  for (const Interval& iv : intervals) {
    Time begin = iv.begin;
    while (ci < cuts.size() && cuts[ci] <= iv.begin) ++ci;
    std::size_t cj = ci;
    while (cj < cuts.size() && cuts[cj] < iv.end) {
      out.push_back(Interval{begin, cuts[cj], iv.green});
      begin = cuts[cj];
      ++cj;
    }
    out.push_back(Interval{begin, iv.end, iv.green});
    ci = cj;
  }
  return out;
}

std::vector<Interval> refineIntervals(const EnhancedGraph& gc,
                                      const PowerProfile& profile, int k,
                                      unsigned threads,
                                      RefinementScratch* scratch) {
  const std::vector<Time> cuts =
      refinementCutPoints(gc, profile, k, threads, scratch);
  return splitIntervalsAt(profile.intervals(), cuts);
}

} // namespace cawo
