// Sharded LRU cache of groom results keyed by graph identity + algorithm
// config.
//
// Production grooming traffic is repetitive — the same ring's traffic
// graph gets re-groomed when operators compare k values or re-request a
// plan — so the service memoizes `groom` by (graph fingerprint, algorithm,
// k, seed, option flags).  The cached value is the full result payload
// including the partition parts, so a hit rebuilds plans/responses
// byte-identically to a fresh computation (determinism contract: every
// algorithm is a pure function of that key).
//
// Two properties make the cache disappear from the hot path:
//
//  - Values are immutable `shared_ptr<const GroomCacheValue>`: a hit is a
//    refcount bump, never a deep copy of the partition payload, and the
//    entry stays alive for the reader even if it is evicted concurrently.
//  - The key space is striped across N independent shards (selected by
//    fingerprint-derived hash bits), each with its own mutex + LRU list,
//    so workers hitting different graphs never contend on one lock.
//
// Eviction is LRU *per shard*; capacity is distributed evenly across
// shards (each shard gets ceil(capacity / shards)).  With `shards == 1`
// the cache degenerates to exact global LRU — tests use that mode to pin
// eviction order.  capacity 0 disables caching (get always misses, put
// drops).  Hit/miss/eviction totals are relaxed atomics, mirrored into
// ServiceMetrics by the server.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "partition/edge_partition.hpp"

namespace tgroom {

struct GroomCacheKey {
  std::uint64_t fingerprint = 0;
  int algorithm = 0;
  int k = 0;
  std::uint64_t seed = 0;
  unsigned flags = 0;  // bit 0: refine, bit 1: smart_branches

  friend bool operator==(const GroomCacheKey&, const GroomCacheKey&) = default;
};

struct GroomCacheKeyHash {
  std::size_t operator()(const GroomCacheKey& key) const;
};

struct GroomCacheValue {
  long long sadms = 0;
  int wavelengths = 0;
  long long lower_bound = 0;
  FlatParts parts;  // the partition, part-by-part
};

struct PlanCacheStats {
  long long hits = 0;
  long long misses = 0;
  long long evictions = 0;
};

class PlanCache {
 public:
  /// `shards == 0` picks a power-of-two shard count automatically (capped
  /// so every shard holds at least a few entries).
  explicit PlanCache(std::size_t capacity, std::size_t shards = 0);

  /// Returns the cached value (refreshing its recency) or nullptr.  The
  /// pointee is immutable and safe to read without any lock, even across
  /// a concurrent eviction of the entry.
  std::shared_ptr<const GroomCacheValue> get(const GroomCacheKey& key);

  /// Inserts (or refreshes) `value`; evicts the least recently used
  /// entries of the key's shard beyond its capacity.  Returns the number
  /// of entries evicted.
  std::size_t put(const GroomCacheKey& key,
                  std::shared_ptr<const GroomCacheValue> value);
  std::size_t put(const GroomCacheKey& key, GroomCacheValue value) {
    return put(key,
               std::make_shared<const GroomCacheValue>(std::move(value)));
  }

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  std::size_t shard_count() const { return shards_.size(); }

  PlanCacheStats stats() const;

 private:
  using Entry =
      std::pair<GroomCacheKey, std::shared_ptr<const GroomCacheValue>>;

  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;  // front = most recent
    std::unordered_map<GroomCacheKey, std::list<Entry>::iterator,
                       GroomCacheKeyHash>
        index;
  };

  Shard& shard_for(const GroomCacheKey& key);

  const std::size_t capacity_;        // nominal total
  std::size_t shard_capacity_ = 0;    // per-shard LRU bound
  std::size_t shard_mask_ = 0;        // shard count - 1 (power of two)
  std::vector<Shard> shards_;
  std::atomic<long long> hits_{0};
  std::atomic<long long> misses_{0};
  std::atomic<long long> evictions_{0};
};

}  // namespace tgroom
