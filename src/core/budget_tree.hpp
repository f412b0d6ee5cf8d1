#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/types.hpp"

/// \file budget_tree.hpp
/// Ordered segment store with range-decrement and range-argmax, used by the
/// greedy scheduler (Section 5.2) to pick "the interval with the highest
/// budget whose begin lies in [EST, LST]" without a linear scan over up to
/// millions of refined subintervals.
///
/// Storage is a blocked sorted array (a B+-tree-shaped flat layout): the
/// segments live in key order inside fixed-capacity blocks, whose key and
/// budget slabs are carved out of two contiguous arenas, and a small
/// directory vector holds one 40-byte summary per block — first key, block
/// maximum (with the earliest index achieving it), pending lazy addition,
/// count. Every operation is a short binary search over the directory
/// followed by sequential scans or `memmove`s inside one ≤kBlockCap-entry
/// slab: range-argmax compares block summaries left to right (ties
/// therefore resolve to the earliest segment, as the paper requires) and
/// only descends into the two partially covered edge blocks — a fully
/// covered winner's earliest witness is read straight from its summary;
/// `splitAt` is an in-block insert that occasionally splits a full block.
/// Unlike the treap this replaces,
/// the walks are iterative, allocation-free in steady state (block splits
/// amortise over the arena), and every probe touches a handful of cache
/// lines of contiguous memory.
///
/// `maxInRange`/`budgetAt`/`dump` are genuinely read-only, so concurrent
/// const readers are safe — any mutator (`consume`, `splitAt`)
/// requires exclusive access. The store is copyable: a `SolveContext`
/// memoizes one built prototype per interval set and every greedy run
/// starts from a plain copy (three vector copies) instead of rebuilding.

namespace cawo {

class BudgetTree {
public:
  /// Build from contiguous segments: `begins` strictly increasing,
  /// `budgets` parallel. `horizon` is the exclusive end of the last
  /// segment. The trailing seed parameter is retained from the treap
  /// implementation for source compatibility; the blocked store is
  /// deterministic by construction and ignores it.
  BudgetTree(std::vector<Time> begins, std::vector<Power> budgets,
             Time horizon, std::uint64_t seed = 0x7ee9);

  /// Same, without taking ownership of the inputs (the prototype path).
  BudgetTree(std::span<const Time> begins, std::span<const Power> budgets,
             Time horizon);

  /// Ensure a segment boundary exists at `t` (splits the segment containing
  /// t; no-op if t is already a boundary or outside (0, horizon)).
  void splitAt(Time t);

  /// Decrement budgets over the *time window* [a, b): splits at a and b,
  /// then subtracts `amount` from every covered segment.
  void consume(Time a, Time b, Power amount);

  /// consume with a directory locator from a preceding `maxInRange` whose
  /// winning segment begins at `a` (and with no mutation in between): skips
  /// the binary search for a's block. The greedy hot loop always consumes
  /// exactly where it just queried.
  void consume(Time a, Time b, Power amount, std::uint32_t hint);

  struct MaxResult {
    bool found = false;
    Time begin = 0;   ///< earliest segment begin achieving the max
    Power budget = 0; ///< the maximum budget in range
    std::uint32_t block = 0; ///< opaque locator of the winner, for `consume`
  };

  /// Earliest segment with maximum budget among segments whose begin lies
  /// in [lo, hi] (inclusive).
  MaxResult maxInRange(Time lo, Time hi) const;

  /// Budget of the segment containing time t.
  Power budgetAt(Time t) const;

  /// Number of segments (diagnostic).
  std::size_t size() const { return size_; }

  /// All (begin, budget) pairs in order — O(S), for tests.
  std::vector<std::pair<Time, Power>> dump() const;

  Time horizon() const { return horizon_; }

private:
  /// Entries per block slab. Queries scan the directory (one summary per
  /// block) plus at most two edge slabs sequentially; updates memmove at
  /// most one slab. Measured on the greedy workload (narrow windows, one
  /// boundary insert per placement), 32 beats 16/48/64/128: inserts move
  /// ≤ 31 entries and the block-max rescan after a consume stays within
  /// four cache lines, while the directory is still small enough that its
  /// binary search rarely leaves L2.
  static constexpr std::int32_t kBlockCap = 32;

  struct Block {
    Time firstKey = 0;   ///< == keys()[0]; blocks are directory-sorted by it
    Power maxBudget = 0; ///< max over the slab, `lazy` NOT applied
    Power lazy = 0;      ///< pending addition owed to every slab entry
    std::int32_t count = 0;
    std::int32_t slot = 0;   ///< slab index into the arenas
    std::int32_t argmax = 0; ///< earliest slab index achieving maxBudget
  };

  void build(std::span<const Time> begins, std::span<const Power> budgets);

  const Time* keys(const Block& b) const {
    return keyArena_.data() +
           static_cast<std::size_t>(b.slot) * kBlockCap;
  }
  const Power* budgets(const Block& b) const {
    return budgetArena_.data() +
           static_cast<std::size_t>(b.slot) * kBlockCap;
  }
  Time* keys(Block& b) {
    return keyArena_.data() +
           static_cast<std::size_t>(b.slot) * kBlockCap;
  }
  Power* budgets(Block& b) {
    return budgetArena_.data() +
           static_cast<std::size_t>(b.slot) * kBlockCap;
  }

  /// Directory index of the block whose key range contains t
  /// (largest firstKey <= t; t >= 0 implies it exists).
  std::size_t findBlock(Time t) const;

  /// splitAt with the directory search seeded at `bi` (requires
  /// blocks_[bi].firstKey <= t); walks forward to t's block, then inserts.
  /// Returns the directory index of the block containing t (post-split).
  std::size_t splitAtIdxFrom(std::size_t bi, Time t);

  /// consume with the starting directory index already located.
  void consumeFrom(std::size_t bi, Time a, Time b, Power amount);

  /// Add `delta` (may be negative) to the budget of every segment whose
  /// begin lies in [a, b), starting the scan at directory block `start`.
  void addRangeFrom(std::size_t start, Time a, Time b, Power delta);

  /// Split the full block at directory index bi into two half-full blocks.
  void splitBlock(std::size_t bi);

  void recomputeMax(Block& b);

  std::vector<Block> blocks_;      ///< the directory, in key order
  std::vector<Time> keyArena_;     ///< slab-granular key storage
  std::vector<Power> budgetArena_; ///< slab-granular budget storage
  std::size_t size_ = 0;           ///< total segments
  Time horizon_ = 0;
};

} // namespace cawo
