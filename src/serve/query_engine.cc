#include "serve/query_engine.h"

#include <atomic>
#include <unordered_map>
#include <utility>

#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "vct/vct_builder.h"

namespace tkc {

/// Relaxed-atomic counters behind ServeStats: every hot-path bump is a
/// lock-free fetch_add; stats() materializes the plain struct. Cache
/// hit/miss/eviction counts live in the striped cache itself.
struct QueryEngine::AtomicServeStats {
  std::atomic<uint64_t> batches{0};
  std::atomic<uint64_t> queries_served{0};
  std::atomic<uint64_t> index_rejections{0};
  std::atomic<uint64_t> batch_dedup_hits{0};
  std::atomic<uint64_t> executed{0};
  std::atomic<uint64_t> async_batches{0};
  std::atomic<uint64_t> batches_shed{0};
  std::atomic<uint64_t> deadlines_expired{0};
};

namespace {

/// All ServeStats counters are independent monotone event counts; relaxed
/// ordering is enough for each to read as a consistent prefix.
inline void Bump(std::atomic<uint64_t>& counter, uint64_t n = 1) {
  counter.fetch_add(n, std::memory_order_relaxed);
}

}  // namespace

/// The arena free list and the mutex guarding it, heap-allocated as one
/// object so the mutex address survives engine moves and the analysis sees
/// a single `pool->mu` / `pool->free_list` guard relation.
struct QueryEngine::ArenaPool {
  Mutex mu;
  std::vector<std::unique_ptr<VctBuildArena>> free_list TKC_GUARDED_BY(mu);
};

// Checks an arena out of the engine's free list for the duration of one
// query execution. Allocates a fresh arena only when every pooled one is in
// flight, so the list grows to the peak concurrency and then serving reuses
// scratch forever.
class QueryEngine::ArenaLease {
 public:
  explicit ArenaLease(QueryEngine* engine) : pool_(engine->arenas_.get()) {
    MutexLock lock(pool_->mu);
    if (!pool_->free_list.empty()) {
      arena_ = std::move(pool_->free_list.back());
      pool_->free_list.pop_back();
    } else {
      arena_ = std::make_unique<VctBuildArena>();
    }
  }

  ~ArenaLease() {
    MutexLock lock(pool_->mu);
    pool_->free_list.push_back(std::move(arena_));
  }

  VctBuildArena* get() const { return arena_.get(); }

 private:
  ArenaPool* pool_;
  std::unique_ptr<VctBuildArena> arena_;
};

QueryEngine::QueryEngine(const TemporalGraph& g,
                         const QueryEngineOptions& options)
    : graph_(&g),
      options_(options),
      pool_(options.pool != nullptr ? options.pool : &ThreadPool::Shared()),
      cache_(std::make_unique<StripedQueryCache>(options.cache_capacity)),
      arenas_(std::make_unique<ArenaPool>()),
      stats_(std::make_unique<AtomicServeStats>()) {}

QueryEngine::~QueryEngine() = default;
QueryEngine::QueryEngine(QueryEngine&&) noexcept = default;
QueryEngine& QueryEngine::operator=(QueryEngine&&) noexcept = default;

StatusOr<QueryEngine> QueryEngine::Create(const TemporalGraph& g,
                                          const QueryEngineOptions& options) {
  QueryEngine engine(g, options);
  const bool want_index = options.build_index ||
                          options.preloaded_index != nullptr;
  if (want_index && g.num_timestamps() > 0) {
    Status s = engine.BuildAdmissionIndex();
    if (!s.ok()) return s;
  }
  return engine;
}

Status QueryEngine::BuildAdmissionIndex() {
  if (options_.preloaded_index != nullptr) {
    const PhcIndex& pre = *options_.preloaded_index;
    if (pre.range() != graph_->FullRange()) {
      return Status::InvalidArgument(
          "preloaded index does not cover the graph's full range");
    }
    // A graph always has edges, so a genuinely matching index always has
    // a k=1 slice; max_k == 0 means the file describes something else
    // (and would otherwise make every query "provably" empty).
    if (pre.max_k() < 1) {
      return Status::InvalidArgument(
          "preloaded index has no slices for this graph");
    }
    if (pre.Slice(1).num_vertices() != graph_->num_vertices()) {
      return Status::InvalidArgument(
          "preloaded index was built for a different vertex count");
    }
    index_.emplace(pre);  // cheap copy: slices are shared
    return Status::OK();
  }
  PhcBuildOptions build;
  build.pool = pool_;
  auto index = PhcIndex::Build(*graph_, graph_->FullRange(), build);
  if (!index.ok()) return index.status();
  index_.emplace(std::move(index).value());
  return Status::OK();
}

RunOutcome QueryEngine::ExecuteUncached(const Query& query,
                                        const Deadline& batch_deadline) {
  RunOutcome out;
  if (batch_deadline.Expired()) {
    out.status = Status::Timeout("batch deadline expired");
    Bump(stats_->queries_served);
    return out;
  }

  // Admission: a query whose range provably contains no k-core (the index
  // covers the graph's whole span) gets the pipeline's exact empty outcome
  // for free.
  if (index_ && !index_->MayContainCore(query.k, query.range)) {
    out = RunOutcome{};
    out.status = Status::OK();
    Bump(stats_->queries_served);
    Bump(stats_->index_rejections);
    // Provable emptiness is remembered as a tombstone: 1/16th of a full
    // LRU slot, replayed as this exact outcome on a hit.
    cache_->InsertTombstone(query);
    return out;
  }

  const double limit_seconds = options_.per_query_limit_seconds;
  Deadline deadline =
      limit_seconds > 0
          ? Deadline::Earlier(Deadline::AfterSeconds(limit_seconds),
                              batch_deadline)
          : batch_deadline;
  ArenaLease lease(this);
  out = RunAlgorithm(AlgorithmKind::kEnum, *graph_, query, deadline,
                     lease.get());
  Bump(stats_->queries_served);
  Bump(stats_->executed);
  if (out.status.ok()) cache_->Insert(query, out);
  return out;
}

std::vector<RunOutcome> QueryEngine::ServeBatch(
    const std::vector<Query>& queries, const Deadline& deadline) {
  if (deadline.Expired()) {
    Bump(stats_->batches);
    Bump(stats_->deadlines_expired);
    Bump(stats_->queries_served, queries.size());
    std::vector<RunOutcome> outcomes(queries.size());
    for (RunOutcome& out : outcomes) {
      out.status = Status::Timeout("batch deadline expired");
    }
    return outcomes;
  }

  std::vector<RunOutcome> outcomes(queries.size());
  const BatchPlan plan = PreScanBatch(queries, &outcomes);
  auto run_leader = [&](size_t g) {
    outcomes[plan.leaders[g]] =
        ExecuteUncached(queries[plan.leaders[g]], deadline);
  };
  if (pool_->num_threads() > 1 && plan.leaders.size() > 1) {
    pool_->ParallelFor(plan.leaders.size(),
                       [&](size_t g, int /*worker*/) { run_leader(g); });
  } else {
    for (size_t g = 0; g < plan.leaders.size(); ++g) run_leader(g);
  }
  SettleBatch(plan, &outcomes);
  return outcomes;
}

QueryEngine::BatchPlan QueryEngine::PreScanBatch(
    const std::vector<Query>& queries, std::vector<RunOutcome>* outcomes) {
  // Answer cache hits inline (no fan-out cost for hit-heavy workloads) and
  // group the misses by (k, range) so each distinct query executes at most
  // once per batch. Each hit pays only its own stripe's lock; the grouping
  // map is batch-local, so no engine-wide lock is held across the scan.
  BatchPlan plan;
  std::unordered_map<QueryCacheKey, size_t, QueryCacheKeyHasher> group_of;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (cache_->enabled() && cache_->Lookup(queries[i], &(*outcomes)[i])) {
      ++plan.hits;
      continue;
    }
    const QueryCacheKey key{queries[i].k, queries[i].range};
    auto [it, inserted] = group_of.try_emplace(key, plan.leaders.size());
    if (!inserted) {
      plan.followers[it->second].push_back(i);
      continue;
    }
    plan.leaders.push_back(i);
    plan.followers.emplace_back();
  }
  return plan;
}

void QueryEngine::SettleBatch(const BatchPlan& plan,
                              std::vector<RunOutcome>* outcomes) {
  uint64_t copied = 0;
  for (size_t g = 0; g < plan.leaders.size(); ++g) {
    for (size_t i : plan.followers[g]) {
      (*outcomes)[i] = (*outcomes)[plan.leaders[g]];
      ++copied;
    }
  }
  Bump(stats_->batches);
  Bump(stats_->queries_served, plan.hits + copied);
  if (copied > 0) Bump(stats_->batch_dedup_hits, copied);
}

void QueryEngine::CountAsync(AsyncEvent event) {
  switch (event) {
    case AsyncEvent::kSubmitted:
      Bump(stats_->async_batches);
      break;
    case AsyncEvent::kShed:
      Bump(stats_->batches_shed);
      break;
    case AsyncEvent::kExpired:
      Bump(stats_->deadlines_expired);
      break;
  }
}

ServeStats QueryEngine::stats() const {
  // Each counter is an independent relaxed atomic; a snapshot taken under
  // concurrency may tear across counters (never within one), and quiescent
  // reads are exact — the same contract as the striped cache's totals.
  // Relaxed: monotone event counts, no cross-counter ordering promised.
  auto read = [](const std::atomic<uint64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  };
  ServeStats snapshot;
  snapshot.batches = read(stats_->batches);
  snapshot.queries_served = read(stats_->queries_served);
  snapshot.index_rejections = read(stats_->index_rejections);
  snapshot.batch_dedup_hits = read(stats_->batch_dedup_hits);
  snapshot.executed = read(stats_->executed);
  snapshot.async_batches = read(stats_->async_batches);
  snapshot.batches_shed = read(stats_->batches_shed);
  snapshot.deadlines_expired = read(stats_->deadlines_expired);
  snapshot.cache_hits = cache_->hits();
  snapshot.cache_misses = cache_->misses();
  snapshot.cache_evictions = cache_->evictions();
  return snapshot;
}

void QueryEngine::ClearCache() { cache_->Clear(); }

uint64_t QueryEngine::CarryOverCacheFrom(const QueryEngine& prev,
                                         uint32_t clean_above_k) {
  if (!cache_->enabled() || !prev.cache_->enabled()) return 0;
  // prev may still be serving in-flight batches pinned to its snapshot;
  // the export locks one stripe at a time, and the filter runs before
  // payloads are copied so each stripe's lock is held proportionally to
  // what actually carries.
  std::vector<QueryCacheEntry> entries = prev.cache_->ExportLruToMru(
      [](const QueryCacheKey& key, uint32_t bound) { return key.k > bound; },
      clean_above_k);
  return cache_->ImportEntries(std::move(entries));
}

}  // namespace tkc
