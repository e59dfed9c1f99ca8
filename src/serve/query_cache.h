#ifndef TKC_SERVE_QUERY_CACHE_H_
#define TKC_SERVE_QUERY_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/hash.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "workload/query_workload.h"

/// \file query_cache.h
/// Bounded LRU memoization of query outcomes for the serving layer: the
/// result fields of a time-range k-core query are a pure function of
/// (graph, k, range), so a QueryEngine that owns one immutable graph can
/// replay them for repeated queries instead of rebuilding the VCT/ECS.
///
/// Two entry kinds share one LRU order but are accounted differently:
///
///  * **Full outcomes** (Insert) carry a complete RunOutcome and cost
///    kOutcomeWeight budget units each.
///  * **Tombstones** (InsertTombstone) record only that a (k, range) is
///    provably empty — the admission index's rejections. They carry no
///    payload (a hit replays the canonical empty outcome) and cost 1 unit,
///    so a workload dominated by empty-range probes remembers
///    kOutcomeWeight times as many of them in the same budget instead of
///    spending a full slot on ~zero bytes of information.
///
/// `capacity` keeps its historical meaning — the number of *full* outcomes
/// the cache can hold — and translates to a budget of capacity *
/// kOutcomeWeight units. Capacity 0 disables the cache entirely.
///
/// The cache is deliberately *not* internally synchronized — each
/// StripedQueryCache stripe (below) guards its QueryCache with the stripe's
/// own `mu`, so lookup-miss-insert sequences and the hit/eviction counters
/// stay coherent under concurrent batches. Use it directly only from one
/// thread.

namespace tkc {

/// Identity of a cacheable query: the cohesion parameter and the range.
struct QueryCacheKey {
  uint32_t k = 0;
  Window range{0, 0};

  friend bool operator==(const QueryCacheKey& a, const QueryCacheKey& b) {
    return a.k == b.k && a.range == b.range;
  }
};

/// One exported cache entry, the currency of cross-snapshot carry-over
/// (serve/snapshot.h): a key plus its payload, nullopt meaning tombstone.
struct QueryCacheEntry {
  QueryCacheKey key;
  std::optional<RunOutcome> outcome;
};

struct QueryCacheKeyHasher {
  size_t operator()(const QueryCacheKey& key) const {
    uint64_t h = HashU64(key.k);
    h = HashCombine(h, key.range.start);
    h = HashCombine(h, key.range.end);
    return static_cast<size_t>(h);
  }
};

/// Weighted-LRU map from (k, range) to a completed RunOutcome or a
/// provably-empty tombstone.
class QueryCache {
 public:
  /// Budget units per full outcome; a tombstone costs 1. The ratio tracks
  /// the storage ratio: a RunOutcome (Status with its string + 7 scalar
  /// fields) against a key-only entry.
  static constexpr size_t kOutcomeWeight = 16;

  explicit QueryCache(size_t capacity);

  /// On hit, copies the stored outcome into `*out` (which must be non-null)
  /// — for a tombstone, the canonical empty outcome (OK status, all-zero
  /// counts) — promotes the entry to most-recently-used, and returns true.
  /// Counts a hit or a miss either way.
  bool Lookup(const Query& query, RunOutcome* out);

  /// Inserts (or refreshes) the outcome for `query`, evicting least
  /// recently used entries until the weight budget holds. Callers should
  /// only insert outcomes whose status is OK — a failed run (timeout, bad
  /// input) is not a property of the query alone.
  void Insert(const Query& query, const RunOutcome& outcome);

  /// Records that `query` is provably empty at 1/kOutcomeWeight the cost of
  /// a full entry. Refreshing an existing full outcome with a tombstone
  /// keeps the full outcome (it carries strictly more — its execution
  /// fields); only the LRU position refreshes.
  void InsertTombstone(const Query& query);

  void Clear();

  /// Entries passing `keep` (nullptr keeps everything), least recently
  /// used first — the order ImportEntries wants, so a carried-over cache
  /// preserves relative recency. Filtering happens before the payloads
  /// are copied, so the cost is proportional to what is exported. The
  /// cache itself is untouched (no promotion, no counters).
  using KeyPredicate = bool (*)(const QueryCacheKey&, uint32_t);
  std::vector<QueryCacheEntry> ExportLruToMru(
      KeyPredicate keep = nullptr, uint32_t keep_arg = 0) const;

  /// Inserts `entries` in order (each becoming most recently used, so an
  /// LRU-to-MRU export replays with recency intact), evicting to budget as
  /// usual. Counts neither hits nor misses. Returns the number of imported
  /// entries still resident after the import (0 when the cache is
  /// disabled; smaller than entries.size() when this cache's budget
  /// evicted some). The cross-snapshot carry-over path: the new snapshot's
  /// engine imports the predecessor's provably still-valid entries instead
  /// of starting cold.
  size_t ImportEntries(std::vector<QueryCacheEntry> entries);

  size_t size() const { return map_.size(); }
  size_t capacity() const { return capacity_; }
  /// Entries currently stored as tombstones (<= size()).
  size_t tombstones() const { return tombstones_; }
  /// Current / maximum weight in budget units.
  size_t weight_used() const { return weight_used_; }
  size_t weight_capacity() const { return capacity_ * kOutcomeWeight; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }

 private:
  /// nullopt payload = tombstone.
  using Entry = std::pair<QueryCacheKey, std::optional<RunOutcome>>;

  static size_t WeightOf(const Entry& entry) {
    return entry.second.has_value() ? kOutcomeWeight : 1;
  }

  /// Shared insert/refresh: promotes an existing entry (upgrading a
  /// tombstone when a full outcome arrives), else evicts to fit and
  /// prepends.
  void InsertEntry(const QueryCacheKey& key,
                   std::optional<RunOutcome> payload);

  size_t capacity_;
  size_t weight_used_ = 0;
  size_t tombstones_ = 0;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<QueryCacheKey, std::list<Entry>::iterator,
                     QueryCacheKeyHasher>
      map_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

/// Hash-striped concurrent cache: N independently-locked QueryCache
/// stripes, keyed by QueryCacheKeyHasher(k, range) — the serving layer's
/// de-contended memo. Concurrent lookups and inserts on different stripes
/// never serialize against each other; the old single-mutex arrangement
/// funneled every cache touch of every worker through one lock.
///
/// Semantics relative to one QueryCache of the same capacity:
///  * `capacity` keeps its meaning — total full outcomes across all
///    stripes; the weight budget is split evenly per stripe (remainder
///    round-robin), so total weight_capacity() is identical and
///    weight_used() can never exceed it. Capacity 0 disables caching.
///  * A given key always lands on the same stripe, so lookup/insert/
///    tombstone-upgrade semantics per key are exactly QueryCache's.
///  * Eviction is per-stripe LRU — an approximation of the global LRU
///    order whose victims may differ, never the budget.
///  * Counters (hits/misses/evictions/size/weight) are exact per stripe
///    and summed on read; a snapshot taken under concurrency may tear
///    *across* stripes but each stripe's contribution is coherent, and
///    quiescent reads are exact.
///
/// The number of stripes is capped by the capacity (a stripe with a zero
/// budget could never hold anything) and clamped to at least 1.
class StripedQueryCache {
 public:
  static constexpr size_t kDefaultStripes = 16;

  explicit StripedQueryCache(size_t capacity,
                             size_t stripes = kDefaultStripes);

  /// True iff caching is enabled (capacity > 0) — the cheap guard serving
  /// paths check before paying a stripe lock.
  bool enabled() const { return capacity_ > 0; }

  bool Lookup(const Query& query, RunOutcome* out);
  void Insert(const Query& query, const RunOutcome& outcome);
  void InsertTombstone(const Query& query);
  void Clear();

  /// Per-stripe LRU-to-MRU exports, concatenated in stripe order. Global
  /// recency across stripes is not tracked; re-importing preserves each
  /// stripe's relative recency, which is what carry-over needs.
  std::vector<QueryCacheEntry> ExportLruToMru(
      QueryCache::KeyPredicate keep = nullptr, uint32_t keep_arg = 0) const;

  /// Routes each entry to its stripe and imports per stripe in order;
  /// returns the total number of imported entries still resident.
  size_t ImportEntries(std::vector<QueryCacheEntry> entries);

  size_t capacity() const { return capacity_; }
  size_t num_stripes() const { return stripes_.size(); }
  size_t size() const { return Sum(&QueryCache::size); }
  size_t tombstones() const { return Sum(&QueryCache::tombstones); }
  size_t weight_used() const { return Sum(&QueryCache::weight_used); }
  size_t weight_capacity() const {
    return capacity_ * QueryCache::kOutcomeWeight;
  }
  uint64_t hits() const { return Sum(&QueryCache::hits); }
  uint64_t misses() const { return Sum(&QueryCache::misses); }
  uint64_t evictions() const { return Sum(&QueryCache::evictions); }

 private:
  /// One stripe: its lock and its share of the budget. Heap-allocated so
  /// the mutex address is stable and stripes do not false-share. The
  /// unsynchronized QueryCache is reachable only through this struct, and
  /// the guard annotation makes every access prove it holds `mu` —
  /// the per-stripe locking contract the comments used to carry.
  struct Stripe {
    explicit Stripe(size_t cap) : cache(cap) {}
    mutable Mutex mu;
    QueryCache cache TKC_GUARDED_BY(mu);
  };

  size_t StripeOf(const QueryCacheKey& key) const {
    return QueryCacheKeyHasher{}(key) % stripes_.size();
  }

  /// One counter summed over every stripe, each read under its lock.
  template <typename T>
  T Sum(T (QueryCache::*counter)() const) const {
    T total = 0;
    for (const auto& entry : stripes_) {
      Stripe* stripe = entry.get();
      MutexLock lock(stripe->mu);
      total += (stripe->cache.*counter)();
    }
    return total;
  }

  size_t capacity_ = 0;
  std::vector<std::unique_ptr<Stripe>> stripes_;
};

}  // namespace tkc

#endif  // TKC_SERVE_QUERY_CACHE_H_
