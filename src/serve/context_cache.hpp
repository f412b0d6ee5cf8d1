#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/solve_context.hpp"
#include "sim/instance.hpp"

/// \file context_cache.hpp
/// LRU cache of built instances + their `SolveContext`s, keyed by the
/// canonical instance hash (`core/instance_hash`).
///
/// Building an instance (workflow generation, HEFT mapping, enhanced-graph
/// construction, profile expansion) and deriving the shared solve
/// artifacts (initial EST/LST windows, refined intervals, score orders)
/// dominates a small solve's latency. A serve daemon sees the same
/// workflows over and over as carbon signals change, so repeated requests
/// must skip that rebuild entirely: the cache maps the *canonical spec*
/// of a request to a previously built entry without re-building anything,
/// and stores entries under their canonical instance hash — two different
/// specs that expand to the same canonical instance share one entry.
///
/// Concurrency: `acquire` is thread-safe; instance *builds* happen outside
/// the cache lock (two concurrent first requests may both build — the
/// loser's build is discarded and the shared entry wins). There is no
/// per-entry lock: `SolveContext` synchronizes itself, so any number of
/// workers may solve against one entry at once. Eviction only drops the
/// cache's reference — workers holding the `shared_ptr` keep the entry
/// alive until they finish.

namespace cawo {

class ContextCache {
public:
  /// One cached instance. `context` borrows `instance.gc` / `.profile`;
  /// the entry is heap-allocated and immovable, so the borrow is stable.
  struct Entry {
    explicit Entry(Instance built)
        : instance(std::move(built)),
          context(instance.gc, instance.profile, instance.deadline) {}

    Instance instance;
    SolveContext context;
    std::uint64_t hash = 0;   ///< canonical instance hash
  };
  using EntryPtr = std::shared_ptr<Entry>;

  /// Keep at most `capacity` entries (LRU eviction); 0 disables caching
  /// (every acquire builds and nothing is retained).
  explicit ContextCache(std::size_t capacity);

  /// The cached entry for `spec`, building (and inserting) it on a miss.
  /// `*cacheHit` reports which happened. Build failures (infeasible axes,
  /// unknown scenario spec) propagate as the builder's exceptions and
  /// cache nothing.
  EntryPtr acquire(const InstanceSpec& spec, bool* cacheHit);

  struct Counters {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t evictions = 0;
    std::size_t size = 0;
    std::size_t capacity = 0;
  };
  Counters counters() const;

  /// The canonical one-line spelling of a spec — every axis, including the
  /// ones `InstanceSpec::label()` omits (seed, intervals). Exposed for
  /// tests.
  static std::string specKey(const InstanceSpec& spec);

private:
  void touch(std::uint64_t hash);
  void evictIfOver();

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::int64_t hits_ = 0, misses_ = 0, evictions_ = 0;
  std::unordered_map<std::string, std::uint64_t> bySpec_;
  std::map<std::uint64_t, EntryPtr> byHash_;
  std::list<std::uint64_t> lru_; ///< front = most recently used
  std::map<std::uint64_t, std::list<std::uint64_t>::iterator> lruPos_;
};

} // namespace cawo
