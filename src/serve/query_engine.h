#ifndef TKC_SERVE_QUERY_ENGINE_H_
#define TKC_SERVE_QUERY_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "serve/query_cache.h"
#include "serve/submit.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "vct/phc_index.h"
#include "workload/query_workload.h"

/// \file query_engine.h
/// The batch query-serving engine: a long-lived object that owns one
/// immutable temporal graph plus read-only serving state, accepts batches of
/// time-range k-core queries, and fans them out over a ThreadPool. It turns
/// the repo's per-call measurement harness (RunAlgorithm) into a server-
/// shaped subsystem with two verbs, ServeBatch and Submit (serve/submit.h
/// states their threading contract once for every engine):
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
/// to a serial RunAlgorithm call at any thread count, batch split, cache
/// state, or admission path. The *execution* fields (seconds,
/// coretime_seconds, peak_memory_bytes) describe how this engine produced
/// the answer — a cache hit reports the lookup-time outcome of the original
/// run, an admission rejection reports ~0 cost — and are not comparable
/// across paths.

namespace tkc {

struct VctBuildArena;  // vct/vct_builder.h
class QueryEngine;

/// Construction-time configuration of a QueryEngine.
struct QueryEngineOptions {
  /// Algorithm every query is served with (the paper's Enum by default).
  AlgorithmKind algorithm = AlgorithmKind::kEnum;

  /// Pool the batches shard over; nullptr uses ThreadPool::Shared(). A
  /// 1-thread pool serves batches serially on the calling thread.
  ThreadPool* pool = nullptr;

  /// Pool the construction-time PHC index build (or the live layer's
  /// delta-aware Rebuild) fans out over; nullptr falls back to `pool`.
  /// The live-update layer points this at a dedicated update pool so a
  /// rebuild never steals the serving pool's workers out from under
  /// in-flight batches — the contention that collapsed during-update
  /// throughput at low thread counts.
  ThreadPool* index_build_pool = nullptr;

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

  /// Cap on the admission index's largest k-slice (0 = the span's kmax).
  /// Rejection stays exact under a cap: a query with k <= the built max_k
  /// uses its emergence table, and a query with k beyond it is rejected
  /// only when the index is provably complete — the cap was never reached
  /// (span kmax < cap, or no cap). When the cap bites (built max_k ==
  /// cap), beyond-cap queries cannot be proven empty and execute the full
  /// pipeline.
  uint32_t index_max_k = 0;

  /// Bound of the async request queue: at most this many batches wait for
  /// dispatch (see the Submit contract in serve/submit.h for what a full
  /// queue does to each kind of deadline).
  size_t async_queue_capacity = 256;

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
  uint64_t async_batches = 0;     ///< batches that arrived via Submit
  /// Batches shed with ResourceExhausted by the full-queue eviction contest
  /// (the evicted queued batch or the rejected incoming one, one per event).
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

  /// The async verb; see the threading contract in serve/submit.h.
  void Submit(BatchRequest request, Completion done);

  /// Owner-installed keep-alive for the engine's internal async tasks.
  /// Every dispatcher task locks this guard for its whole run, and batch
  /// tasks hold their completion (which may own a pin, as LiveQueryEngine's
  /// does); each task releases its drain ticket *before* dropping its pin.
  /// Net effect: when the last pin disappears — possibly on a pool thread —
  /// no ticket is outstanding, so the destructor's drain returns without
  /// blocking and destroying an owner (e.g. a GraphSnapshot) from inside
  /// one of this engine's own pool tasks cannot deadlock on itself. Must be
  /// set before the first Submit; unset (plain engines), the caller simply
  /// must not destroy the engine from inside one of its own tasks.
  void SetLifetimeGuard(std::weak_ptr<const void> guard);

  /// Blocks until every batch accepted by Submit has delivered.
  void DrainAsync();

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
  /// occurrence) and followers (in-batch duplicates).
  struct BatchPlan {
    std::vector<size_t> leaders;
    std::vector<std::vector<size_t>> followers;
  };
  BatchPlan PreScanBatch(const std::vector<Query>& queries,
                         std::vector<RunOutcome>* outcomes);
  /// Copies each leader's outcome to its followers and settles counters.
  void FanOutFollowers(const BatchPlan& plan,
                       std::vector<RunOutcome>* outcomes);

  // Async machinery (defined in query_engine.cc).
  struct AsyncBatch;       ///< one queued submission
  struct AsyncBatchState;  ///< one dispatched batch's shared in-flight state
  struct AsyncState;       ///< queue + dispatcher + drain bookkeeping
  void ScheduleDispatcher();
  void DispatchAsyncBatches();
  void ProcessAsyncBatch(AsyncBatch batch);
  void FinalizeAsyncBatch(const std::shared_ptr<AsyncBatchState>& state);
  void FinishInflight();
  /// Settles a dropped batch: every outcome gets `status`, the completion
  /// callback runs, and the batch's inflight ticket is released.
  void CompleteAsyncBatch(AsyncBatch&& batch, const Status& status);

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

  /// Async submission state (request queue, dispatcher flag, drain cv).
  std::unique_ptr<AsyncState> async_;
  std::weak_ptr<const void> lifetime_guard_;
};

}  // namespace tkc

#endif  // TKC_SERVE_QUERY_ENGINE_H_
