#include "core/budget_tree.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "util/require.hpp"

namespace cawo {

namespace {
constexpr Power kMinPower = std::numeric_limits<Power>::min();

/// First index in [0, n) with a[i] > t (in-slab upper bound).
std::size_t ub(const Time* a, std::size_t n, Time t) {
  std::size_t lo = 0;
  std::size_t len = n;
  while (len > 0) {
    const std::size_t half = len / 2;
    if (a[lo + half] <= t) {
      lo += half + 1;
      len -= half + 1;
    } else {
      len = half;
    }
  }
  return lo;
}

} // namespace

void BudgetTree::build(std::span<const Time> begins,
                       std::span<const Power> budgets) {
  CAWO_REQUIRE(begins.size() == budgets.size(), "begins/budgets mismatch");
  CAWO_REQUIRE(!begins.empty(), "need at least one segment");
  CAWO_REQUIRE(begins.front() == 0, "first segment must start at 0");
  for (std::size_t i = 1; i < begins.size(); ++i)
    CAWO_REQUIRE(begins[i] > begins[i - 1], "begins must be increasing");
  CAWO_REQUIRE(begins.back() < horizon_, "last segment begin beyond horizon");

  // Fill blocks half-full so the first splits per block are absorbed by
  // free slack instead of immediately splitting slabs.
  constexpr std::size_t fill = static_cast<std::size_t>(kBlockCap) / 2;
  const std::size_t n = begins.size();
  const std::size_t numBlocks = (n + fill - 1) / fill;
  blocks_.reserve(numBlocks + 8);
  keyArena_.resize(numBlocks * kBlockCap);
  budgetArena_.resize(numBlocks * kBlockCap);
  for (std::size_t bi = 0, i = 0; bi < numBlocks; ++bi, i += fill) {
    const std::size_t cnt = std::min(fill, n - i);
    Block b;
    b.firstKey = begins[i];
    b.count = static_cast<std::int32_t>(cnt);
    b.slot = static_cast<std::int32_t>(bi);
    blocks_.push_back(b);
    std::copy_n(begins.data() + i, cnt, keys(blocks_.back()));
    std::copy_n(budgets.data() + i, cnt, this->budgets(blocks_.back()));
    recomputeMax(blocks_.back());
  }
  size_ = n;
}

BudgetTree::BudgetTree(std::vector<Time> begins, std::vector<Power> budgets,
                       Time horizon, std::uint64_t /*seed*/)
    : horizon_(horizon) {
  build(begins, budgets);
}

BudgetTree::BudgetTree(std::span<const Time> begins,
                       std::span<const Power> budgets, Time horizon)
    : horizon_(horizon) {
  build(begins, budgets);
}

void BudgetTree::recomputeMax(Block& b) {
  const Power* vals = budgets(b);
  Power m = kMinPower;
  std::int32_t arg = 0;
  for (std::int32_t k = 0; k < b.count; ++k) {
    if (vals[k] > m) {
      m = vals[k];
      arg = k;
    }
  }
  b.maxBudget = m;
  b.argmax = arg;
}

std::size_t BudgetTree::findBlock(Time t) const {
  // Largest directory index with firstKey <= t (branchless; block 0 has
  // firstKey == 0, so for t >= 0 the answer always exists).
  const Block* base = blocks_.data();
  std::size_t lo = 0;
  std::size_t n = blocks_.size();
  while (n > 1) {
    const std::size_t half = n / 2;
    lo = base[lo + half].firstKey <= t ? lo + half : lo;
    n -= half;
  }
  return lo;
}

void BudgetTree::splitBlock(std::size_t bi) {
  const std::int32_t newSlot =
      static_cast<std::int32_t>(keyArena_.size() / kBlockCap);
  keyArena_.resize(keyArena_.size() + kBlockCap);
  budgetArena_.resize(budgetArena_.size() + kBlockCap);

  Block& b = blocks_[bi];
  const std::int32_t lowerCnt = b.count / 2;
  const std::int32_t upperCnt = b.count - lowerCnt;
  Block nb;
  nb.slot = newSlot;
  nb.count = upperCnt;
  nb.lazy = b.lazy;
  std::copy_n(keys(b) + lowerCnt, upperCnt,
              keyArena_.data() + static_cast<std::size_t>(newSlot) * kBlockCap);
  std::copy_n(budgets(b) + lowerCnt, upperCnt,
              budgetArena_.data() +
                  static_cast<std::size_t>(newSlot) * kBlockCap);
  nb.firstKey = keys(nb)[0];
  recomputeMax(nb);
  b.count = lowerCnt;
  recomputeMax(b);
  blocks_.insert(blocks_.begin() + static_cast<std::ptrdiff_t>(bi) + 1, nb);
}

std::size_t BudgetTree::splitAtIdxFrom(std::size_t bi, Time t) {
  if (t <= 0) return 0;
  if (t >= horizon_) return bi;
  const std::size_t nb = blocks_.size();
  while (bi + 1 < nb && blocks_[bi + 1].firstKey <= t) ++bi;
  {
    Block& b = blocks_[bi];
    const Time* k = keys(b);
    const std::size_t pos = ub(k, static_cast<std::size_t>(b.count), t);
    // pos >= 1: firstKey <= t. The floor entry is pos-1; an exact hit means
    // the boundary already exists.
    if (k[pos - 1] == t) return bi;
    if (b.count < kBlockCap) {
      Time* km = keys(b);
      Power* vm = budgets(b);
      std::copy_backward(km + pos, km + b.count, km + b.count + 1);
      std::copy_backward(vm + pos, vm + b.count, vm + b.count + 1);
      km[pos] = t;
      vm[pos] = vm[pos - 1]; // the new segment inherits the floor's budget
      ++b.count;             // maxBudget unchanged: the value already existed
      ++size_;
      // The earliest occurrence of maxBudget shifts right with the insert;
      // the inserted copy can never *become* the earliest (its source sits
      // immediately to its left).
      if (static_cast<std::size_t>(b.argmax) >= pos) ++b.argmax;
      return bi;
    }
  }
  splitBlock(bi);
  if (blocks_[bi + 1].firstKey <= t) ++bi;
  Block& b = blocks_[bi];
  const std::size_t pos = ub(keys(b), static_cast<std::size_t>(b.count), t);
  Time* km = keys(b);
  Power* vm = budgets(b);
  std::copy_backward(km + pos, km + b.count, km + b.count + 1);
  std::copy_backward(vm + pos, vm + b.count, vm + b.count + 1);
  km[pos] = t;
  vm[pos] = vm[pos - 1];
  ++b.count;
  ++size_;
  if (static_cast<std::size_t>(b.argmax) >= pos) ++b.argmax;
  return bi;
}

void BudgetTree::splitAt(Time t) {
  if (t <= 0 || t >= horizon_) return;
  (void)splitAtIdxFrom(findBlock(t), t);
}

void BudgetTree::addRangeFrom(std::size_t start, Time a, Time b,
                              Power delta) {
  const Time hi = b - 1; // keys in [a, hi]
  const std::size_t nb = blocks_.size();
  for (std::size_t bi = start; bi < nb && blocks_[bi].firstKey <= hi; ++bi) {
    Block& blk = blocks_[bi];
    // Full-coverage test from the directory alone where possible: the
    // next block's firstKey bounds this block's last key from above, so
    // interior blocks never touch their slab.
    const bool rightIn = bi + 1 < nb ? blocks_[bi + 1].firstKey <= hi + 1
                                     : keys(blk)[blk.count - 1] <= hi;
    if (a <= blk.firstKey && rightIn) {
      blk.lazy += delta; // fully covered
      continue;
    }
    const Time* k = keys(blk);
    const std::size_t from =
        a <= blk.firstKey ? 0 : ub(k, static_cast<std::size_t>(blk.count),
                                   a - 1);
    const std::size_t to =
        k[blk.count - 1] <= hi ? static_cast<std::size_t>(blk.count)
                               : ub(k, static_cast<std::size_t>(blk.count),
                                    hi);
    if (from >= to) continue;
    Power* vals = budgets(blk);
    // Incremental block max: track the touched range's (max, earliest
    // index) before and after the add. If the block max lived outside the
    // touched range it is unchanged; only when the touched range held it
    // does the block need a full rescan (and even then the touched part is
    // already known).
    Power oldTouchedMax = kMinPower;
    Power newTouchedMax = kMinPower;
    std::size_t newArg = from;
    for (std::size_t j = from; j < to; ++j) {
      oldTouchedMax = std::max(oldTouchedMax, vals[j]);
      vals[j] += delta;
      if (vals[j] > newTouchedMax) {
        newTouchedMax = vals[j];
        newArg = j;
      }
    }
    if (newTouchedMax > blk.maxBudget) {
      // Untouched entries are all <= the old max < newTouchedMax, so the
      // earliest witness lives inside the touched range.
      blk.maxBudget = newTouchedMax;
      blk.argmax = static_cast<std::int32_t>(newArg);
    } else if (oldTouchedMax == blk.maxBudget) {
      // The touched range held the block max; recompute it. Pure max first
      // (this loop vectorizes), earliest witness second (early exit: the
      // scan stops at the new argmax).
      Power m = newTouchedMax;
      for (std::size_t j = 0; j < from; ++j) m = std::max(m, vals[j]);
      for (std::size_t j = to; j < static_cast<std::size_t>(blk.count); ++j)
        m = std::max(m, vals[j]);
      blk.maxBudget = m;
      std::size_t arg = 0;
      while (vals[arg] != m) ++arg;
      blk.argmax = static_cast<std::int32_t>(arg);
    } else if (newTouchedMax == blk.maxBudget &&
               static_cast<std::int32_t>(newArg) < blk.argmax) {
      // A positive delta can lift a touched entry up to the (unchanged)
      // block max at an earlier index than the current witness.
      blk.argmax = static_cast<std::int32_t>(newArg);
    }
  }
}

void BudgetTree::consume(Time a, Time b, Power amount) {
  if (a >= b || amount == 0) return;
  CAWO_REQUIRE(a >= 0 && b <= horizon_, "consume outside horizon");
  consumeFrom(a <= 0 ? 0 : findBlock(a), a, b, amount);
}

void BudgetTree::consume(Time a, Time b, Power amount, std::uint32_t hint) {
  if (a >= b || amount == 0) return;
  CAWO_REQUIRE(a >= 0 && b <= horizon_, "consume outside horizon");
  CAWO_ASSERT(hint < blocks_.size() && blocks_[hint].firstKey <= a,
              "consume: stale hint");
  consumeFrom(hint, a, b, amount);
}

void BudgetTree::consumeFrom(std::size_t bi, Time a, Time b, Power amount) {
  // Fused walk: one directory search total. The split at a returns a's
  // block; b lies at most a few blocks later, so its split walks forward
  // from there; the subtraction then reuses a's position. (If the split at
  // b divides a's own block, the walk may start one block early; the
  // per-block from/to clamps make that a no-op.)
  const std::size_t bia = splitAtIdxFrom(bi, a);
  (void)splitAtIdxFrom(bia, b);
  addRangeFrom(bia, a, b, -amount);
}

BudgetTree::MaxResult BudgetTree::maxInRange(Time lo, Time hi) const {
  MaxResult res;
  if (lo > hi) return res;
  Power best = kMinPower;
  Time bestKey = 0;
  std::uint32_t bestBi = 0;
  // Left-to-right scan with a strictly-greater update: ties resolve to the
  // earliest segment by construction. Fully covered blocks are answered by
  // their summary alone (interior blocks prove coverage from the next
  // block's firstKey, and `argmax` names the earliest witness without a
  // slab scan); only the (≤2) edge blocks are descended into.
  const std::size_t nb = blocks_.size();
  for (std::size_t bi = lo <= 0 ? 0 : findBlock(lo);
       bi < nb && blocks_[bi].firstKey <= hi; ++bi) {
    const Block& blk = blocks_[bi];
    const bool rightIn = bi + 1 < nb ? blocks_[bi + 1].firstKey <= hi + 1
                                     : keys(blk)[blk.count - 1] <= hi;
    if (lo <= blk.firstKey && rightIn) {
      const Power m = blk.maxBudget + blk.lazy;
      if (m > best) {
        best = m;
        bestKey = keys(blk)[blk.argmax];
        bestBi = static_cast<std::uint32_t>(bi);
      }
      continue;
    }
    const Time* k = keys(blk);
    const std::size_t from =
        lo <= blk.firstKey ? 0 : ub(k, static_cast<std::size_t>(blk.count),
                                    lo - 1);
    const std::size_t to =
        k[blk.count - 1] <= hi ? static_cast<std::size_t>(blk.count)
                               : ub(k, static_cast<std::size_t>(blk.count),
                                    hi);
    const Power* vals = budgets(blk);
    for (std::size_t j = from; j < to; ++j) {
      const Power v = vals[j] + blk.lazy;
      if (v > best) {
        best = v;
        bestKey = k[j];
        bestBi = static_cast<std::uint32_t>(bi);
      }
    }
  }
  if (best == kMinPower) return res;
  res.found = true;
  res.begin = bestKey;
  res.budget = best;
  res.block = bestBi;
  return res;
}

Power BudgetTree::budgetAt(Time t) const {
  CAWO_REQUIRE(t >= 0 && t < horizon_, "time outside horizon");
  const Block& b = blocks_[findBlock(t)];
  const std::size_t pos = ub(keys(b), static_cast<std::size_t>(b.count), t);
  CAWO_ASSERT(pos >= 1, "no segment contains t");
  return budgets(b)[pos - 1] + b.lazy;
}

std::vector<std::pair<Time, Power>> BudgetTree::dump() const {
  std::vector<std::pair<Time, Power>> out;
  out.reserve(size_);
  for (const Block& b : blocks_) {
    const Time* k = keys(b);
    const Power* v = budgets(b);
    for (std::int32_t j = 0; j < b.count; ++j)
      out.emplace_back(k[j], v[j] + b.lazy);
  }
  return out;
}

} // namespace cawo
