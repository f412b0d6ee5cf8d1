#include "core/power_timeline.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace cawo {

namespace {

/// Replace v[i0, j0) by src[0, n) with at most one tail move per vector.
template <class T>
void spliceVec(std::vector<T>& v, std::size_t i0, std::size_t j0, const T* src,
               std::size_t n) {
  const std::size_t oldN = j0 - i0;
  if (n == oldN) {
    std::copy(src, src + n, v.begin() + i0);
  } else if (n < oldN) {
    std::copy(src, src + n, v.begin() + i0);
    v.erase(v.begin() + i0 + n, v.begin() + j0);
  } else {
    std::copy(src, src + oldN, v.begin() + i0);
    v.insert(v.begin() + j0, src + oldN, src + n);
  }
}

} // namespace

PowerTimeline::PowerTimeline(const PowerProfile& profile, Power basePower)
    : base_(basePower), horizon_(profile.horizon()) {
  CAWO_REQUIRE(basePower >= 0, "negative base power");
  CAWO_REQUIRE(horizon_ > 0, "profile has an empty horizon");
  const auto& ivs = profile.intervals();
  begin_.reserve(ivs.size() + 1);
  active_.reserve(ivs.size());
  green_.reserve(ivs.size());
  for (const Interval& iv : profile.intervals()) {
    if (!green_.empty() && green_.back() == iv.green) continue; // coalesce
    begin_.push_back(iv.begin);
    active_.push_back(0);
    green_.push_back(iv.green);
  }
  begin_.push_back(horizon_); // sentinel
  // Left-to-right accumulation — the summation order every other entry
  // point preserves, so totals stay bit-identical across implementations.
  for (std::size_t i = 0; i < active_.size(); ++i) total_ += segCost(i);
}

std::size_t PowerTimeline::findSeg(Time t) const {
  // Branchless binary search for the largest i with begin_[i] <= t.
  // Precondition: 0 <= t < horizon_, so the answer is in [0, S).
  const Time* base = begin_.data();
  std::size_t lo = 0;
  std::size_t n = active_.size();
  while (n > 1) {
    const std::size_t half = n / 2;
    lo = base[lo + half] <= t ? lo + half : lo;
    n -= half;
  }
  return lo;
}

Cost PowerTimeline::segCost(std::size_t i) const {
  const Time len = begin_[i + 1] - begin_[i];
  const Power over = base_ + active_[i] - green_[i];
  return over > 0 ? static_cast<Cost>(over) * len : 0;
}

void PowerTimeline::rewriteWindow(Time a, Time b, Time a2, Time b2,
                                  Power work) {
  const bool hasOld = a < b;
  const bool hasNew = a2 < b2;
  CAWO_ASSERT(work != 0 && (hasOld || hasNew), "empty rewrite");
  Time wlo = hasOld ? a : a2;
  Time whi = hasOld ? b : b2;
  if (hasNew) {
    wlo = std::min(wlo, a2);
    whi = std::max(whi, b2);
  }
  CAWO_REQUIRE(wlo >= 0 && whi <= horizon_, "load outside horizon");

  // All segments intersecting [wlo, whi) are rewritten whole: the pieces
  // outside the edited spans keep their original values and coalesce back.
  const std::size_t i0 = findSeg(wlo);
  std::size_t j0 = findSeg(whi - 1) + 1;

  scratchBegin_.clear();
  scratchActive_.clear();
  scratchGreen_.clear();
  Cost oldCost = 0;
  for (std::size_t i = i0; i < j0; ++i) {
    oldCost += segCost(i);
    const Time segLo = begin_[i];
    const Time segHi = begin_[i + 1];
    // The load change is piecewise constant inside the segment, switching
    // only at the move endpoints: cut there, emit each constant piece,
    // coalescing equal neighbours as we go.
    Time cuts[6] = {segLo, segHi};
    int numCuts = 2;
    for (const Time t : {a, b, a2, b2})
      if (t > segLo && t < segHi) cuts[numCuts++] = t;
    for (int k = 2; k < numCuts; ++k) { // insertion sort: ≤ 6 elements
      const Time t = cuts[k];
      int j = k - 1;
      while (j >= 0 && cuts[j] > t) {
        cuts[j + 1] = cuts[j];
        --j;
      }
      cuts[j + 1] = t;
    }
    for (int k = 0; k + 1 < numCuts; ++k) {
      const Time pieceLo = cuts[k];
      if (pieceLo >= cuts[k + 1]) continue; // duplicate cut
      Power act = active_[i];
      if (hasOld && pieceLo >= a && pieceLo < b) act -= work;
      if (hasNew && pieceLo >= a2 && pieceLo < b2) act += work;
      if (!scratchBegin_.empty() && scratchActive_.back() == act &&
          scratchGreen_.back() == green_[i])
        continue; // extends the previous piece
      scratchBegin_.push_back(pieceLo);
      scratchActive_.push_back(act);
      scratchGreen_.push_back(green_[i]);
    }
  }

  // Absorb the right neighbour if the edit made the last piece equal to it.
  if (j0 < active_.size() && scratchActive_.back() == active_[j0] &&
      scratchGreen_.back() == green_[j0]) {
    oldCost += segCost(j0);
    ++j0;
  }

  // New cost of the rewritten span, left to right.
  Cost newCost = 0;
  const Time spanEnd = begin_[j0];
  for (std::size_t k = 0; k < scratchBegin_.size(); ++k) {
    const Time end =
        k + 1 < scratchBegin_.size() ? scratchBegin_[k + 1] : spanEnd;
    const Power over = base_ + scratchActive_[k] - scratchGreen_[k];
    if (over > 0) newCost += static_cast<Cost>(over) * (end - scratchBegin_[k]);
  }

  // Merge into the left neighbour if the first piece now matches it (the
  // cost above is unchanged — the values are equal by construction).
  std::size_t first = 0;
  if (i0 > 0 && scratchActive_[0] == active_[i0 - 1] &&
      scratchGreen_[0] == green_[i0 - 1])
    first = 1;

  const std::size_t n = scratchBegin_.size() - first;
  spliceVec(begin_, i0, j0, scratchBegin_.data() + first, n);
  spliceVec(active_, i0, j0, scratchActive_.data() + first, n);
  spliceVec(green_, i0, j0, scratchGreen_.data() + first, n);
  total_ += newCost - oldCost;
}

void PowerTimeline::addLoad(Time a, Time b, Power work) {
  if (a >= b || work == 0) return;
  CAWO_REQUIRE(a >= 0 && b <= horizon_, "load outside horizon");
  rewriteWindow(0, 0, a, b, work);
}

void PowerTimeline::removeLoad(Time a, Time b, Power work) {
  addLoad(a, b, -work);
}

void PowerTimeline::applyMove(Time a, Time b, Time a2, Time b2, Power work) {
  const bool hasOld = a < b;
  const bool hasNew = a2 < b2;
  if (work == 0 || (!hasOld && !hasNew)) return;
  if (hasOld && hasNew && a == a2 && b == b2) return;
  if (!hasOld) return addLoad(a2, b2, work);
  if (!hasNew) return removeLoad(a, b, work);
  rewriteWindow(a, b, a2, b2, work);
}

void PowerTimeline::addLoads(std::span<const Load> loads) {
  // Event sweep: one (time, Δpower) event per load endpoint, sorted once,
  // then merged with the existing segments in an O(S + L) rebuild of the
  // whole segment array — instead of one window rewrite (each a potential
  // tail shift) per load. Every load is validated before anything changes.
  struct Event {
    Time time;
    Power delta;
  };
  std::vector<Event> events;
  events.reserve(2 * loads.size());
  for (const Load& l : loads) {
    if (l.work == 0 || l.begin >= l.end) continue;
    CAWO_REQUIRE(l.begin >= 0 && l.end <= horizon_, "load outside horizon");
    events.push_back({l.begin, l.work});
    events.push_back({l.end, -l.work});
  }
  if (events.empty()) return;
  // Only the time orders the sweep; deltas at one instant are summed.
  std::sort(events.begin(), events.end(),
            [](const Event& x, const Event& y) { return x.time < y.time; });

  // Merge the existing segment boundaries with the event boundaries into a
  // fresh coalesced array.
  std::vector<Time> newBegin;
  std::vector<Power> newActive;
  std::vector<Power> newGreen;
  newBegin.reserve(begin_.size() + events.size());
  newActive.reserve(begin_.size() + events.size());
  newGreen.reserve(begin_.size() + events.size());
  std::size_t si = 0;                 // current old segment
  std::size_t ei = 0;                 // next event
  Power running = 0;                  // Σ event deltas so far
  Time t = 0;
  Cost total = 0;
  while (t < horizon_) {
    while (si + 1 < active_.size() && begin_[si + 1] <= t) ++si;
    while (ei < events.size() && events[ei].time <= t)
      running += events[ei++].delta;
    Time next = begin_[si + 1];
    if (ei < events.size()) next = std::min(next, events[ei].time);
    const Power act = active_[si] + running;
    if (newBegin.empty() || newActive.back() != act ||
        newGreen.back() != green_[si]) {
      newBegin.push_back(t);
      newActive.push_back(act);
      newGreen.push_back(green_[si]);
    }
    const Power over = base_ + act - green_[si];
    if (over > 0) total += static_cast<Cost>(over) * (next - t);
    t = next;
  }
  newBegin.push_back(horizon_);
  begin_ = std::move(newBegin);
  active_ = std::move(newActive);
  green_ = std::move(newGreen);
  total_ = total;
}

Cost PowerTimeline::costInRange(Time a, Time b) const {
  if (a >= b) return 0;
  CAWO_REQUIRE(a >= 0 && b <= horizon_, "range outside horizon");
  Cost cost = 0;
  for (std::size_t i = findSeg(a); i < active_.size() && begin_[i] < b; ++i) {
    const Time lo = std::max(a, begin_[i]);
    const Time hi = std::min(b, begin_[i + 1]);
    const Power over = base_ + active_[i] - green_[i];
    if (over > 0 && hi > lo) cost += static_cast<Cost>(over) * (hi - lo);
  }
  return cost;
}

Cost PowerTimeline::peekMoveDelta(Time a, Time b, Time a2, Time b2,
                                  Power work) const {
  const bool hasOld = a < b;
  const bool hasNew = a2 < b2;
  if (work == 0 || (!hasOld && !hasNew) ||
      (hasOld && hasNew && a == a2 && b == b2))
    return 0;
  Time lo = hasOld ? a : a2;
  Time hi = hasOld ? b : b2;
  if (hasNew) {
    lo = std::min(lo, a2);
    hi = std::max(hi, b2);
  }
  CAWO_REQUIRE(lo >= 0 && hi <= horizon_, "load outside horizon");

  Cost delta = 0;
  for (std::size_t i = findSeg(lo); i < active_.size() && begin_[i] < hi;
       ++i) {
    const Time segLo = std::max(lo, begin_[i]);
    const Time segHi = std::min(hi, begin_[i + 1]);
    const Power over = base_ + active_[i] - green_[i];
    // The load change is piecewise constant; inside this segment it can
    // only switch at the four move endpoints, so cut there and sum each
    // constant piece directly.
    Time cuts[6] = {segLo, segHi};
    int numCuts = 2;
    for (const Time t : {a, b, a2, b2})
      if (t > segLo && t < segHi) cuts[numCuts++] = t;
    for (int k = 2; k < numCuts; ++k) { // insertion sort: ≤ 6 elements
      const Time t = cuts[k];
      int j = k - 1;
      while (j >= 0 && cuts[j] > t) {
        cuts[j + 1] = cuts[j];
        --j;
      }
      cuts[j + 1] = t;
    }
    for (int k = 0; k + 1 < numCuts; ++k) {
      const Time pieceLo = cuts[k];
      const Time pieceHi = cuts[k + 1];
      if (pieceLo >= pieceHi) continue; // duplicate cut
      Power change = 0;
      if (hasOld && pieceLo >= a && pieceLo < b) change -= work;
      if (hasNew && pieceLo >= a2 && pieceLo < b2) change += work;
      if (change == 0) continue;
      const Power moved = over + change;
      const Time len = pieceHi - pieceLo;
      if (over > 0) delta -= static_cast<Cost>(over) * len;
      if (moved > 0) delta += static_cast<Cost>(moved) * len;
    }
  }
  return delta;
}

void PowerTimeline::peekMoveDeltas(Time a, Time b, Power work,
                                   std::span<const CandidateInterval> candidates,
                                   PeekScratch& scratch,
                                   std::span<Cost> out) const {
  CAWO_REQUIRE(out.size() == candidates.size(),
               "peekMoveDeltas: out/candidates size mismatch");
  if (candidates.empty()) return;
  if (work == 0) {
    std::fill(out.begin(), out.end(), Cost{0});
    return;
  }
  const bool hasOld = a < b;
  if (hasOld) CAWO_REQUIRE(a >= 0 && b <= horizon_, "load outside horizon");

  // Shared removal term: cost change of taking the load off [a, b). This
  // is the part every candidate target has in common, so compute it once.
  Cost removal = 0;
  if (hasOld) {
    for (std::size_t i = findSeg(a); i < active_.size() && begin_[i] < b;
         ++i) {
      const Time lo = std::max(a, begin_[i]);
      const Time hi = std::min(b, begin_[i + 1]);
      const Power over = base_ + active_[i] - green_[i];
      const Power rem = over - work;
      const Time len = hi - lo;
      if (over > 0) removal -= static_cast<Cost>(over) * len;
      if (rem > 0) removal += static_cast<Cost>(rem) * len;
    }
  }

  // Window covering every non-empty candidate.
  Time wlo = horizon_;
  Time whi = 0;
  bool any = false;
  for (const CandidateInterval& c : candidates) {
    if (c.begin >= c.end) continue;
    any = true;
    wlo = std::min(wlo, c.begin);
    whi = std::max(whi, c.end);
  }
  if (!any) {
    // Every candidate target is empty — each probe is removal-only.
    std::fill(out.begin(), out.end(), hasOld ? removal : Cost{0});
    return;
  }
  CAWO_REQUIRE(wlo >= 0 && whi <= horizon_, "candidate outside horizon");

  // Piece table over [wlo, whi): pieces cut at segment boundaries and at
  // the source endpoints (inside [a, b) the residual power after removal
  // is lower by `work`). gain[k] is the per-unit cost of adding the load
  // back over piece k; prefix[k] integrates gain from wlo to pieceBegin[k],
  // so any candidate [c, d) evaluates as removal + G(d) − G(c).
  scratch.pieceBegin.clear();
  scratch.gain.clear();
  scratch.prefix.clear();
  scratch.prefix.push_back(0);
  Cost acc = 0;
  for (std::size_t i = findSeg(wlo); i < active_.size() && begin_[i] < whi;
       ++i) {
    const Time segLo = std::max(wlo, begin_[i]);
    const Time segHi = std::min(whi, begin_[i + 1]);
    Time cuts[4] = {segLo, segHi};
    int numCuts = 2;
    if (hasOld) {
      if (a > segLo && a < segHi) cuts[numCuts++] = a;
      if (b > segLo && b < segHi) cuts[numCuts++] = b;
    }
    for (int k = 2; k < numCuts; ++k) { // insertion sort: ≤ 4 elements
      const Time t = cuts[k];
      int j = k - 1;
      while (j >= 0 && cuts[j] > t) {
        cuts[j + 1] = cuts[j];
        --j;
      }
      cuts[j + 1] = t;
    }
    for (int k = 0; k + 1 < numCuts; ++k) {
      const Time pieceLo = cuts[k];
      const Time pieceHi = cuts[k + 1];
      if (pieceLo >= pieceHi) continue; // duplicate cut
      Power over = base_ + active_[i] - green_[i];
      if (hasOld && pieceLo >= a && pieceLo < b) over -= work;
      const Power raised = over + work;
      const Power gain = (raised > 0 ? raised : 0) - (over > 0 ? over : 0);
      scratch.pieceBegin.push_back(pieceLo);
      scratch.gain.push_back(gain);
      acc += static_cast<Cost>(gain) * (pieceHi - pieceLo);
      scratch.prefix.push_back(acc);
    }
  }
  scratch.pieceBegin.push_back(whi); // sentinel

  const Time* pb = scratch.pieceBegin.data();
  const Power* gain = scratch.gain.data();
  const Cost* prefix = scratch.prefix.data();
  const std::size_t numPieces = scratch.gain.size();
  // Candidate endpoints from the local search arrive sorted, so evaluate
  // with two monotone piece cursors — the whole batch is a single merged
  // walk over pieces and candidates. An out-of-order endpoint just resets
  // its cursor by binary search; correctness never depends on the order.
  auto seek = [&](std::size_t j, Time t) -> std::size_t {
    if (j < numPieces && pb[j] <= t && t < pb[j + 1]) return j;
    if (j + 1 < numPieces && pb[j + 1] <= t && t < pb[j + 2]) return j + 1;
    std::size_t lo = 0; // largest k with pieceBegin[k] <= t (branchless)
    std::size_t n = numPieces + 1;
    while (n > 1) {
      const std::size_t half = n / 2;
      lo = pb[lo + half] <= t ? lo + half : lo;
      n -= half;
    }
    return lo;
  };
  auto integralAt = [&](std::size_t j, Time t) -> Cost {
    if (j == numPieces) return prefix[numPieces]; // t == whi
    return prefix[j] + static_cast<Cost>(gain[j]) * (t - pb[j]);
  };

  std::size_t jb = 0; // cursor for candidate begins
  std::size_t je = 0; // cursor for candidate ends
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    const CandidateInterval& c = candidates[k];
    if (c.begin >= c.end) {
      out[k] = hasOld ? removal : 0;
    } else if (hasOld && c.begin == a && c.end == b) {
      out[k] = 0; // identity move, by definition
    } else {
      jb = seek(jb, c.begin);
      je = seek(je, c.end);
      out[k] = removal + (integralAt(je, c.end) - integralAt(jb, c.begin));
    }
  }
}

} // namespace cawo
