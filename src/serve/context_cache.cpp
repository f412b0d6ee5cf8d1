#include "serve/context_cache.hpp"

#include "core/instance_hash.hpp"
#include "exp/json.hpp"
#include "util/require.hpp"
#include "workflow/generators.hpp"

namespace cawo {

ContextCache::ContextCache(std::size_t capacity) : capacity_(capacity) {}

std::string ContextCache::specKey(const InstanceSpec& spec) {
  // jsonNumber keeps the deadline factor round-trip exact, so two specs
  // differing in any representable factor get distinct keys.
  return std::string(familyName(spec.family)) + "|" +
         std::to_string(spec.targetTasks) + "|" +
         std::to_string(spec.nodesPerType) + "|" + spec.scenario + "|" +
         jsonNumber(spec.deadlineFactor) + "|" +
         std::to_string(spec.numIntervals) + "|" +
         std::to_string(spec.seed);
}

ContextCache::EntryPtr ContextCache::acquire(const InstanceSpec& spec,
                                             bool* cacheHit) {
  const std::string key = specKey(spec);
  {
    const std::scoped_lock lock(mutex_);
    const auto it = bySpec_.find(key);
    if (it != bySpec_.end()) {
      const auto entryIt = byHash_.find(it->second);
      CAWO_ASSERT(entryIt != byHash_.end(),
                  "spec alias points at an evicted cache entry");
      touch(it->second);
      ++hits_;
      if (cacheHit) *cacheHit = true;
      return entryIt->second;
    }
    ++misses_;
  }
  if (cacheHit) *cacheHit = false;

  // Build outside the lock: a slow first build must not stall hits on
  // other instances. Two racing first requests both build; the insert
  // below resolves the race in favour of whoever got there first.
  auto entry = std::make_shared<Entry>(buildInstance(spec));
  entry->hash = instanceHash(entry->instance.gc, entry->instance.profile,
                             entry->instance.deadline);

  if (capacity_ == 0) return entry; // caching disabled — nothing retained

  const std::scoped_lock lock(mutex_);
  const auto raced = bySpec_.find(key);
  if (raced != bySpec_.end()) {
    // Another thread built and inserted this spec meanwhile — share its
    // entry so every worker warms and reads the same context.
    touch(raced->second);
    return byHash_.at(raced->second);
  }
  const auto sameHash = byHash_.find(entry->hash);
  if (sameHash != byHash_.end()) {
    // A different spec expanded to the same canonical instance: alias it.
    bySpec_.emplace(key, entry->hash);
    touch(entry->hash);
    return sameHash->second;
  }
  byHash_.emplace(entry->hash, entry);
  lru_.push_front(entry->hash);
  lruPos_[entry->hash] = lru_.begin();
  bySpec_.emplace(key, entry->hash);
  evictIfOver();
  return entry;
}

ContextCache::Counters ContextCache::counters() const {
  const std::scoped_lock lock(mutex_);
  Counters c;
  c.hits = hits_;
  c.misses = misses_;
  c.evictions = evictions_;
  c.size = byHash_.size();
  c.capacity = capacity_;
  return c;
}

void ContextCache::touch(std::uint64_t hash) {
  const auto pos = lruPos_.find(hash);
  CAWO_ASSERT(pos != lruPos_.end(), "LRU position missing for cache entry");
  lru_.splice(lru_.begin(), lru_, pos->second);
  pos->second = lru_.begin();
}

void ContextCache::evictIfOver() {
  while (byHash_.size() > capacity_) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    lruPos_.erase(victim);
    byHash_.erase(victim);
    for (auto it = bySpec_.begin(); it != bySpec_.end();) {
      if (it->second == victim) it = bySpec_.erase(it);
      else ++it;
    }
    ++evictions_;
  }
}

} // namespace cawo
