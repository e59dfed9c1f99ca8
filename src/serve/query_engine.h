#ifndef TKC_SERVE_QUERY_ENGINE_H_
#define TKC_SERVE_QUERY_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "serve/query_cache.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "vct/phc_index.h"
#include "workload/query_workload.h"

/// \file query_engine.h
/// The batch query-serving engine: a long-lived object that owns one
/// immutable temporal graph plus read-only serving state, accepts batches of
/// time-range k-core queries, and fans them out over a ThreadPool. Every
/// miss runs the paper's CoreTime+Enum (RunAlgorithm with
/// AlgorithmKind::kEnum); the engine turns that per-call runner into a
/// server-shaped subsystem with one verb, the sync ServeBatch
/// (serve/submit.h states the contract of both verbs once). The async verb
/// lives one layer up, on LiveQueryEngine (serve/snapshot.h): its single
/// request queue runs each batch's scan, misses and settlement on the
/// engine of the snapshot the batch pinned, so every counter below still
/// lands on that engine.
///
///  * **Sharding.** A batch's distinct misses shard dynamically across the
///    pool's workers; every query touches the graph read-only, so batches
///    are embarrassingly parallel and callable concurrently from any number
///    of client threads.
///  * **Zero steady-state allocation.** Each in-flight query checks a
///    VctBuildArena out of an internal free list (growing only to the peak
///    concurrency ever observed) so the CoreTime phase recycles all scratch.
///  * **Admission index.** At construction the engine can build a full PHC
///    index (all k-slices) over the graph's time span; each slice carries
///    its *core-emergence table* (PhcIndex::MayContainCore). A query whose
///    range provably contains no temporal k-core (k beyond the global
///    kmax, or emergence after the range end) is then answered in O(1)
///    with the exact empty outcome the full pipeline would produce — no
///    build, no allocation.
///  * **Memoization.** Completed outcomes are stored in a bounded LRU
///    (serve/query_cache.h) keyed by (k, range), so repeated-query
///    workloads are served at lookup cost; admission rejections are stored
///    as compact tombstones (1/16th of a full slot). The LRU is
///    hash-striped (StripedQueryCache): concurrent workers touching
///    different keys never serialize on a single cache lock, and every
///    serve counter is a relaxed atomic aggregated on read — the only
///    engine-wide mutex left on the hot path guards the arena free list.
///  * **Batch dedup.** Duplicate queries inside one batch execute once;
///    every duplicate gets a copy of the leader's outcome.
///
/// Determinism contract: the *result* fields of a served outcome (status
/// code, num_cores, result_size_edges, vct_size, ecs_size) are bit-identical
/// to a serial RunAlgorithm(kEnum) call at any thread count, batch split,
/// cache state, or admission path. The *execution* fields (seconds,
/// coretime_seconds, peak_memory_bytes) describe how this engine produced
/// the answer — a cache hit reports the lookup-time outcome of the original
/// run, an admission rejection reports ~0 cost — and are not comparable
/// across paths.

namespace tkc {

struct VctBuildArena;  // vct/vct_builder.h
class QueryEngine;

/// Construction-time configuration of a QueryEngine.
struct QueryEngineOptions {
  /// Pool the batches shard over; nullptr uses ThreadPool::Shared(). A
  /// 1-thread pool serves batches serially on the calling thread.
  ThreadPool* pool = nullptr;

  /// LRU capacity of the (k, range) -> outcome memo; 0 disables caching.
  /// The memo is hash-striped (StripedQueryCache::kDefaultStripes stripes,
  /// never more than the capacity).
  size_t cache_capacity = 1024;

  /// Per-query execution limit, measured from when the query starts
  /// executing and combined with the batch deadline (whichever is
  /// earlier); <= 0 means unlimited.
  double per_query_limit_seconds = 0;

  /// Build the PHC admission index at construction.
  /// Costs one full multi-k index build up front; pays for itself on
  /// workloads with empty-result queries.
  bool build_index = false;

  /// Serve the admission index from this prebuilt PHC index (typically
  /// LoadPhcIndex from vct/index_io.h) instead of building one at
  /// construction — the persist/load path that amortizes engine start-up.
  /// Implies build_index; must cover the graph's FullRange() and vertex
  /// count. Copied into the engine; only read during Create.
  const PhcIndex* preloaded_index = nullptr;
};

/// Monotone counters describing everything an engine has served.
struct ServeStats {
  uint64_t batches = 0;          ///< batches served (either verb)
  uint64_t queries_served = 0;   ///< total queries answered
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;     ///< lookups that fell through (cache on)
  uint64_t cache_evictions = 0;
  uint64_t index_rejections = 0;  ///< answered empty from the admission index
  uint64_t batch_dedup_hits = 0;  ///< served as in-batch duplicates
  uint64_t executed = 0;          ///< ran the full algorithm
  /// Batches that arrived via LiveQueryEngine::Submit pinned to this
  /// engine's snapshot.
  uint64_t async_batches = 0;
  /// Batches shed with ResourceExhausted by the full-queue eviction contest
  /// (the evicted queued batch or the rejected incoming one, one per event),
  /// counted on the shed batch's own engine.
  uint64_t batches_shed = 0;
  /// Submissions dropped whole with Timeout because their deadline had
  /// already expired (at submission, at dispatch, or at ServeBatch entry).
  /// A deadline expiring mid-execution surfaces as a Timeout outcome but
  /// is not counted here.
  uint64_t deadlines_expired = 0;
};

class QueryEngine {
 public:
  /// Validates options and builds the serving state. `g` must outlive the
  /// engine and must not be mutated while it serves.
  [[nodiscard]] static StatusOr<QueryEngine> Create(
      const TemporalGraph& g, const QueryEngineOptions& options = {});

  ~QueryEngine();
  QueryEngine(QueryEngine&&) noexcept;
  QueryEngine& operator=(QueryEngine&&) noexcept;
  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// The sync verb (serve/submit.h): cache hits are answered inline in one
  /// pre-scan, duplicate queries collapse to a single execution, and only
  /// the distinct misses shard over the pool, joined by the calling thread.
  /// outcome[i] answers queries[i]. Expired at entry, the whole batch
  /// returns `Status::Timeout` outcomes without executing; expiring
  /// mid-batch, the not-yet-run misses return Timeout outcomes.
  std::vector<RunOutcome> ServeBatch(const std::vector<Query>& queries,
                                     const Deadline& deadline = Deadline());

  /// Snapshot of the cumulative serving counters.
  ServeStats stats() const;

  /// Drops every memoized outcome (counters are kept).
  void ClearCache();

  /// Cross-snapshot cache carry-over (serve/snapshot.h): seeds this
  /// engine's memo with `prev`'s entries whose k the caller has proven
  /// unaffected by the graph delta separating the two engines' graphs —
  /// entries with k > clean_above_k carry (0 carries everything; see
  /// PhcRebuildStats::clean_above_k). Per-stripe relative recency is
  /// preserved. Returns the number of entries carried; 0 when either cache
  /// is disabled. Call before this engine starts serving (it locks each
  /// cache stripe in turn, prev's first).
  uint64_t CarryOverCacheFrom(const QueryEngine& prev,
                              uint32_t clean_above_k);

  /// The admission index, or nullptr when the engine was built without
  /// one.
  const PhcIndex* index() const { return index_ ? &*index_ : nullptr; }

  int num_threads() const { return pool_->num_threads(); }

 private:
  template <typename T>
  friend class StatusOr;  // needs the inert default state below
  /// The async verb runs a pinned engine's pre-scan, misses and
  /// settlement, and counts its submissions, sheds and expiries here.
  friend class LiveQueryEngine;

  /// Inert engine (no graph, no pool) — only the empty slot inside a
  /// StatusOr before a real engine is moved in. Never served from.
  QueryEngine() = default;

  QueryEngine(const TemporalGraph& g, const QueryEngineOptions& options);

  [[nodiscard]] Status BuildAdmissionIndex();

  /// The post-cache-miss path: admission check, algorithm execution, cache
  /// insert, counter updates. `batch_deadline` caps the execution together
  /// with options.per_query_limit_seconds (whichever is earlier); expired
  /// on entry, the query returns a Timeout outcome without running.
  RunOutcome ExecuteUncached(const Query& query,
                             const Deadline& batch_deadline);

  /// Checks an arena out of the free list (allocating only when every
  /// existing arena is in flight) and returns it on destruction.
  class ArenaLease;

  /// One pre-scan over a batch: cache hits answered inline into
  /// `outcomes`, remaining distinct misses grouped into leaders (first
  /// occurrence) and followers (in-batch duplicates). Counts nothing but
  /// the cache's own hits and misses: a scanned batch may still be shed.
  struct BatchPlan {
    std::vector<size_t> leaders;
    std::vector<std::vector<size_t>> followers;
    uint64_t hits = 0;
  };
  BatchPlan PreScanBatch(const std::vector<Query>& queries,
                         std::vector<RunOutcome>* outcomes);
  /// Copies each leader's outcome to its followers and counts the batch,
  /// its hits and its duplicates as served.
  void SettleBatch(const BatchPlan& plan, std::vector<RunOutcome>* outcomes);

  /// The async verb's events, counted on the pinned engine (ServeStats).
  enum class AsyncEvent { kSubmitted, kShed, kExpired };
  void CountAsync(AsyncEvent event);

  const TemporalGraph* graph_ = nullptr;
  QueryEngineOptions options_;
  ThreadPool* pool_ = nullptr;

  /// Admission index (immutable after Create).
  std::optional<PhcIndex> index_;

  /// Relaxed-atomic mirrors of ServeStats, bumped lock-free on the hot
  /// path and aggregated by stats(). Monotone counters need no ordering —
  /// a reader sees some interleaving-consistent prefix of each.
  struct AtomicServeStats;

  /// Serving state. The cache stripes its own locks; the only engine-wide
  /// mutex left guards the arena free list (a short push/pop). The list
  /// lives with its mutex in one heap struct (ArenaPool, defined in
  /// query_engine.cc) so the mutex address is stable across engine moves
  /// and the guard relation is a single annotated object for the
  /// thread-safety analysis.
  std::unique_ptr<StripedQueryCache> cache_;
  struct ArenaPool;
  std::unique_ptr<ArenaPool> arenas_;
  std::unique_ptr<AtomicServeStats> stats_;
};

}  // namespace tkc

#endif  // TKC_SERVE_QUERY_ENGINE_H_
