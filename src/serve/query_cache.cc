#include "serve/query_cache.h"

namespace tkc {

namespace {

/// The outcome an admission rejection produces: OK status, every count
/// zero. Replayed verbatim for tombstone hits, so a tombstone hit is
/// bit-identical (result fields) to the admission path it memoizes.
RunOutcome CanonicalEmptyOutcome() {
  RunOutcome out;
  out.status = Status::OK();
  return out;
}

}  // namespace

QueryCache::QueryCache(size_t capacity) : capacity_(capacity) {
  if (capacity_ > 0) map_.reserve(capacity_);
}

bool QueryCache::Lookup(const Query& query, RunOutcome* out) {
  const QueryCacheKey key{query.k, query.range};
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // promote to MRU
  *out = it->second->second.has_value() ? *it->second->second
                                        : CanonicalEmptyOutcome();
  ++hits_;
  return true;
}

void QueryCache::InsertEntry(const QueryCacheKey& key,
                             std::optional<RunOutcome> payload) {
  auto evict_to_budget = [this] {
    // Never evicts the MRU entry itself (it may be the one just touched;
    // a lone full outcome in a capacity-1 cache is exactly the budget).
    while (weight_used_ > weight_capacity() && lru_.size() > 1) {
      const Entry& victim = lru_.back();
      weight_used_ -= WeightOf(victim);
      if (!victim.second.has_value()) --tombstones_;
      map_.erase(victim.first);
      lru_.pop_back();
      ++evictions_;
    }
  };

  auto it = map_.find(key);
  if (it != map_.end()) {
    Entry& entry = *it->second;
    // A tombstone never demotes a stored full outcome; any other payload
    // replaces (tombstone -> full upgrades, full -> full refreshes). An
    // upgrade grows the entry's weight, so the budget is re-enforced.
    if (payload.has_value() || !entry.second.has_value()) {
      weight_used_ -= WeightOf(entry);
      if (!entry.second.has_value()) --tombstones_;
      entry.second = std::move(payload);
      weight_used_ += WeightOf(entry);
      if (!entry.second.has_value()) ++tombstones_;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    evict_to_budget();
    return;
  }
  const size_t weight = payload.has_value() ? kOutcomeWeight : 1;
  weight_used_ += weight;
  lru_.emplace_front(key, std::move(payload));
  map_.emplace(key, lru_.begin());
  if (!lru_.front().second.has_value()) ++tombstones_;
  evict_to_budget();
}

void QueryCache::Insert(const Query& query, const RunOutcome& outcome) {
  if (capacity_ == 0) return;
  InsertEntry(QueryCacheKey{query.k, query.range}, outcome);
}

void QueryCache::InsertTombstone(const Query& query) {
  if (capacity_ == 0) return;
  InsertEntry(QueryCacheKey{query.k, query.range}, std::nullopt);
}

std::vector<QueryCacheEntry> QueryCache::ExportLruToMru(
    KeyPredicate keep, uint32_t keep_arg) const {
  std::vector<QueryCacheEntry> entries;
  entries.reserve(lru_.size());
  // lru_ runs MRU -> LRU front to back; export reversed.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    if (keep != nullptr && !keep(it->first, keep_arg)) continue;
    entries.push_back(QueryCacheEntry{it->first, it->second});
  }
  return entries;
}

size_t QueryCache::ImportEntries(std::vector<QueryCacheEntry> entries) {
  if (capacity_ == 0) return 0;
  for (QueryCacheEntry& entry : entries) {
    InsertEntry(entry.key, std::move(entry.outcome));
  }
  // Later imports (or the budget) may have evicted earlier ones; report
  // what actually survived.
  size_t resident = 0;
  for (const QueryCacheEntry& entry : entries) {
    if (map_.find(entry.key) != map_.end()) ++resident;
  }
  return resident;
}

void QueryCache::Clear() {
  lru_.clear();
  map_.clear();
  weight_used_ = 0;
  tombstones_ = 0;
}

StripedQueryCache::StripedQueryCache(size_t capacity, size_t stripes)
    : capacity_(capacity) {
  // A stripe with a zero budget could never hold anything (and would break
  // the "total capacity preserved" contract), so the stripe count is
  // capped by the capacity. Capacity 0 keeps one inert stripe so the
  // accessors stay total.
  size_t count = stripes == 0 ? 1 : stripes;
  if (capacity_ > 0 && count > capacity_) count = capacity_;
  if (capacity_ == 0) count = 1;
  stripes_.reserve(count);
  const size_t base = capacity_ / count;
  const size_t remainder = capacity_ % count;
  for (size_t i = 0; i < count; ++i) {
    stripes_.push_back(
        std::make_unique<Stripe>(base + (i < remainder ? 1 : 0)));
  }
}

bool StripedQueryCache::Lookup(const Query& query, RunOutcome* out) {
  Stripe* stripe =
      stripes_[StripeOf(QueryCacheKey{query.k, query.range})].get();
  MutexLock lock(stripe->mu);
  return stripe->cache.Lookup(query, out);
}

void StripedQueryCache::Insert(const Query& query, const RunOutcome& outcome) {
  if (capacity_ == 0) return;
  Stripe* stripe =
      stripes_[StripeOf(QueryCacheKey{query.k, query.range})].get();
  MutexLock lock(stripe->mu);
  stripe->cache.Insert(query, outcome);
}

void StripedQueryCache::InsertTombstone(const Query& query) {
  if (capacity_ == 0) return;
  Stripe* stripe =
      stripes_[StripeOf(QueryCacheKey{query.k, query.range})].get();
  MutexLock lock(stripe->mu);
  stripe->cache.InsertTombstone(query);
}

void StripedQueryCache::Clear() {
  for (const auto& entry : stripes_) {
    Stripe* stripe = entry.get();
    MutexLock lock(stripe->mu);
    stripe->cache.Clear();
  }
}

std::vector<QueryCacheEntry> StripedQueryCache::ExportLruToMru(
    QueryCache::KeyPredicate keep, uint32_t keep_arg) const {
  std::vector<QueryCacheEntry> entries;
  for (const auto& entry : stripes_) {
    Stripe* stripe = entry.get();
    MutexLock lock(stripe->mu);
    std::vector<QueryCacheEntry> part =
        stripe->cache.ExportLruToMru(keep, keep_arg);
    entries.insert(entries.end(), std::make_move_iterator(part.begin()),
                   std::make_move_iterator(part.end()));
  }
  return entries;
}

size_t StripedQueryCache::ImportEntries(std::vector<QueryCacheEntry> entries) {
  if (capacity_ == 0) return 0;
  // Route first, then import stripe by stripe: each stripe sees its
  // entries in the exported order, so per-stripe recency replays intact.
  std::vector<std::vector<QueryCacheEntry>> routed(stripes_.size());
  for (QueryCacheEntry& entry : entries) {
    routed[StripeOf(entry.key)].push_back(std::move(entry));
  }
  size_t resident = 0;
  for (size_t i = 0; i < stripes_.size(); ++i) {
    if (routed[i].empty()) continue;
    Stripe* stripe = stripes_[i].get();
    MutexLock lock(stripe->mu);
    resident += stripe->cache.ImportEntries(std::move(routed[i]));
  }
  return resident;
}

}  // namespace tkc
