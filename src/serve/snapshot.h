#ifndef TKC_SERVE_SNAPSHOT_H_
#define TKC_SERVE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "graph/temporal_graph.h"
#include "serve/query_engine.h"
#include "serve/submit.h"
#include "util/mpsc_queue.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "vct/phc_index.h"

/// \file snapshot.h
/// Live updates for the serving layer: a versioned, immutable
/// (graph + engine) snapshot and a LiveQueryEngine that serves queries from
/// the current snapshot while rebuilding the next one off-thread.
///
/// Consistency model — *pinned snapshots, no torn reads*:
///
///  * A GraphSnapshot is immutable: the temporal graph and the PHC
///    admission index (emergence tables included) are built once and
///    never mutated (the engine's cache/arena internals are mutable but
///    internally synchronized and invisible to results).
///  * Every submission — sync or async — *pins* the snapshot that is
///    current at submission time by holding its shared_ptr until the
///    batch's result is delivered. All queries of one batch therefore
///    answer against exactly one graph version, even if any number of
///    swaps land while the batch is in flight.
///  * The async verb has one request queue per LiveQueryEngine, not one per
///    snapshot: a queued batch carries its own pin and runs its pre-scan,
///    misses and settlement on that snapshot's engine. The queue bound,
///    FIFO dispatch and the shed contest therefore hold across swaps, and
///    "no other batch in flight" (serve/submit.h) means on any snapshot.
///  * ApplyUpdates never blocks serving: a dedicated updater thread builds
///    the successor snapshot off to the side — its index rebuild fanned
///    over a dedicated update pool, never the serving pool — and then
///    publishes it with one shared_ptr assignment under a mutex; pinning
///    the current snapshot is a refcount bump under the same mutex. Old
///    snapshots die when their last pinned batch completes — on whatever
///    thread drops that pin, a pool worker included: a snapshot's engine
///    owns no async tasks, so its destruction waits on nothing.
///  * Update batches are applied strictly FIFO (a bounded MPSC queue feeds
///    the updater thread). Under swap pressure the updater *coalesces*:
///    each rebuild cycle drains every batch queued at that moment, applies
///    their edges as one delta, and advances the version by the number of
///    batches coalesced — so version N is always exactly the initial graph
///    plus update batches 1..N (the property the differential harness
///    replays against), with published versions a subset of {0, 1, 2, ...}
///    that skips the interiors of coalesced groups. A cycle that fails
///    drops *every* batch it coalesced (all their futures carry the error,
///    all count as failed_updates) and the previous snapshot stays
///    current.
///
/// Incremental maintenance — *delta-aware rebuilds*:
///
///  * TemporalGraph::AppendEdges reports an EdgeDelta alongside the new
///    graph. When the delta preserved the compacted timeline and the
///    vertex pool, PhcIndex::Rebuild reuses (by pointer — slices are
///    shared_ptr) every k-slice with k > delta.max_core_bound: no appended
///    edge can sit inside such a k-core, so those slices are provably
///    bit-identical to a from-scratch build. Only the dirty slices rebuild
///    over the pool. A reused slice brings its emergence table along.
///  * The successor engine's query cache is seeded with the predecessor's
///    entries whose (k, range) lies in a provably-clean slice region
///    (QueryEngine::CarryOverCacheFrom) instead of starting cold.
///  * Per-swap accounting lands in GraphSnapshot::swap_stats() and
///    aggregates into LiveStats::update (UpdateStats).

namespace tkc {

/// Cumulative counters of the delta-aware updater. Exposed as
/// LiveStats::update and printed by `tkc_cli --updates`.
///
/// Invariants (asserted by the differential harness after every scenario,
/// with `failed` = LiveStats::failed_updates):
///   batches_applied + failed == batches_submitted
///   batches_coalesced        <= batches_applied + failed
struct UpdateStats {
  /// ApplyUpdates batches the updater thread picked up (applied, failed,
  /// or released at shutdown). Batches rejected at submission time — the
  /// engine was already shutting down — never reach the updater and are
  /// not counted.
  uint64_t batches_submitted = 0;
  /// Batches whose edges made it into a swapped-in snapshot.
  uint64_t batches_applied = 0;
  /// Batches merged into another batch's rebuild cycle (group size - 1 per
  /// cycle, counted whether the cycle succeeded or failed — either way the
  /// riders shared one outcome instead of paying their own cycle): how
  /// much work coalescing saved under swap pressure.
  uint64_t batches_coalesced = 0;
  /// Index slices carried across swaps by pointer (no rebuild).
  uint64_t slices_reused = 0;
  /// Index slices rebuilt from scratch during swaps.
  uint64_t slices_rebuilt = 0;
  /// Dirty slices maintained partially: only the start band the delta
  /// could touch was recomputed, prefix/tail rows carried over.
  uint64_t suffix_rebuilds = 0;
  /// VCT rows carried across swaps (whole-slice reuse + suffix stitching).
  uint64_t rows_reused = 0;
  /// Total VCT rows across all incrementally produced indexes.
  uint64_t rows_total = 0;
  /// Per-k core-emergence tables carried across swaps. A table lives in
  /// its slice, so this always equals slices_reused; kept for the
  /// end-to-end benchmark's serve.emergence_tables_carried metric.
  uint64_t emergence_tables_carried = 0;
  /// Query-cache entries carried across swaps instead of recomputing.
  uint64_t cache_entries_carried = 0;
  /// Swap cycles that carried at least one slice (whole or suffix).
  uint64_t incremental_swaps = 0;
  /// Rebuild attempts beyond each cycle's first (the retry/backoff path).
  uint64_t rebuild_retries = 0;
  /// Total milliseconds spent degraded: inside a cycle's retry loop, from
  /// its first failed attempt until the cycle settled (either way).
  uint64_t degraded_ms = 0;
};

/// The update path's coarse health, exposed by LiveQueryEngine::health().
/// Serving is unaffected by all three states — queries keep answering from
/// the last good snapshot; the state describes whether *updates* are
/// landing.
enum class HealthState {
  kHealthy,        ///< last rebuild cycle succeeded (or none ran yet)
  kDegraded,       ///< a rebuild cycle is mid-retry after transient failure
  kUpdatesFailed,  ///< a cycle exhausted its retries; updates are failing
};

/// One immutable graph version with its serving engine. Always heap-owned
/// via shared_ptr (Create returns one) so in-flight batches can pin it past
/// a swap; never copied or moved (the engine holds a pointer to the graph).
class GraphSnapshot {
 public:
  /// How this snapshot was produced from its predecessor. All-zero for the
  /// initial snapshot and for full (non-incremental) rebuilds.
  struct SwapStats {
    uint64_t delta_edges = 0;       ///< effective appended edges
    uint32_t slices_reused = 0;     ///< index slices shared with the base
    uint32_t slices_rebuilt = 0;    ///< index slices rebuilt for this version
    uint32_t suffix_rebuilds = 0;   ///< slices maintained by suffix stitching
    uint64_t rows_reused = 0;       ///< VCT rows carried from the base index
    uint64_t rows_total = 0;        ///< VCT rows across this version's index
    uint64_t cache_entries_carried = 0;  ///< memo entries seeded from the base
  };

  /// Builds a snapshot owning `graph` and an engine configured by
  /// `options` (options.pool etc. apply per snapshot).
  [[nodiscard]] static StatusOr<std::shared_ptr<const GraphSnapshot>> Create(
      TemporalGraph graph, uint64_t version,
      const QueryEngineOptions& options);

  /// Builds the successor of `base` for an applied update. When `options`
  /// wants an admission index, the successor's index is built here over
  /// `index_pool` — by the delta-aware PhcIndex::Rebuild (clean slices
  /// shared by pointer) when `base` has an index, by PhcIndex::Build when
  /// it has none — and handed to the engine as its preloaded index. The
  /// successor's query cache is seeded with base's provably still-valid
  /// entries. swap_stats() records what was reused.
  [[nodiscard]] static StatusOr<std::shared_ptr<const GraphSnapshot>>
  CreateSuccessor(const GraphSnapshot& base, GraphUpdate update,
                  uint64_t version, const QueryEngineOptions& options,
                  ThreadPool* index_pool);

  GraphSnapshot(const GraphSnapshot&) = delete;
  GraphSnapshot& operator=(const GraphSnapshot&) = delete;

  const TemporalGraph& graph() const { return graph_; }
  uint64_t version() const { return version_; }
  const SwapStats& swap_stats() const { return swap_stats_; }

  /// The snapshot's serving engine. Non-const on purpose: serving mutates
  /// internal caches/counters, all internally synchronized — logically the
  /// snapshot stays immutable, which is why this is callable on const.
  QueryEngine& engine() const { return *engine_; }

 private:
  GraphSnapshot() = default;

  /// Shared Create/CreateSuccessor body: builds the snapshot and engine,
  /// returning a still-mutable handle for post-build bookkeeping.
  static StatusOr<std::shared_ptr<GraphSnapshot>> CreateImpl(
      TemporalGraph graph, uint64_t version,
      const QueryEngineOptions& options);

  TemporalGraph graph_;
  uint64_t version_ = 0;
  SwapStats swap_stats_;
  /// optional<> only because QueryEngine is built after graph_ is in place
  /// (it keeps a pointer to it); engaged for the snapshot's whole life.
  mutable std::optional<QueryEngine> engine_;
};

/// Configuration of a LiveQueryEngine.
struct LiveEngineOptions {
  /// Per-snapshot engine configuration (pool, cache, admission index).
  /// Applied to every rebuilt snapshot; engine.pool also runs the async
  /// verb's dispatcher and misses.
  QueryEngineOptions engine;

  /// Bound of the async request queue: at most this many batches wait for
  /// dispatch, whichever snapshots they pinned (see the Submit contract in
  /// serve/submit.h for what a full queue does to each kind of deadline).
  size_t async_queue_capacity = 256;

  /// Bound of the update queue: at most this many ApplyUpdates batches
  /// wait for the updater thread; further calls block (backpressure).
  // lint: test-only-option(update_queue_capacity): tests shrink it so
  // ApplyUpdates backpressure and coalescing fire within a few batches.
  size_t update_queue_capacity = 64;
};

/// Monotone counters and last-event gauges for the live layer.
struct LiveStats {
  uint64_t swaps = 0;            ///< rebuild cycles swapped in
  uint64_t edges_applied = 0;    ///< update edges ingested across all swaps
  /// ApplyUpdates batches that failed — including batches dropped because
  /// the cycle they were coalesced into failed.
  uint64_t failed_updates = 0;
  double last_rebuild_seconds = 0;  ///< graph + index rebuild of last swap
  double last_swap_seconds = 0;     ///< pointer swap of last swap (~0)
  UpdateStats update;               ///< delta-aware updater counters
};

/// A QueryEngine that stays correct while edges keep arriving: serves every
/// submission from a pinned immutable snapshot and applies updates by
/// building and atomically swapping in the successor snapshot.
class LiveQueryEngine {
 public:
  /// Rebuild attempts per cycle before the coalesced batches fail. Only
  /// *transient* failures retry — Internal/IOError/Corruption/Timeout; a
  /// deterministic rejection like InvalidArgument fails the cycle at once,
  /// since every attempt would reproduce it. Between attempts the updater
  /// waits a capped exponential backoff (1 ms doubling to at most 100 ms)
  /// scaled by a seeded jitter factor in [0.5, 1.0), so repeated failures
  /// don't beat in lockstep with anything; Shutdown interrupts the wait and
  /// fails the cycle with its last error.
  static constexpr int kMaxRebuildAttempts = 3;

  /// Stands up version 0 from `initial_graph` and starts the updater
  /// thread. The pool in options.engine (shared pool when null) must
  /// outlive the engine.
  [[nodiscard]] static StatusOr<std::unique_ptr<LiveQueryEngine>> Create(
      TemporalGraph initial_graph, const LiveEngineOptions& options = {});

  /// Runs Shutdown() (see below — in particular, destroying an engine
  /// whose pause gate is still held *releases* queued batches with
  /// FailedPrecondition rather than silently applying them or hanging the
  /// updater), which also drains every accepted async batch. Snapshots
  /// pinned by callers outlive this object.
  ~LiveQueryEngine();

  LiveQueryEngine(const LiveQueryEngine&) = delete;
  LiveQueryEngine& operator=(const LiveQueryEngine&) = delete;

  /// Pins and returns the current snapshot (callers may hold it as long as
  /// they like; it stays valid and immutable past any number of swaps).
  std::shared_ptr<const GraphSnapshot> snapshot() const
      TKC_EXCLUDES(snapshots_mu_);

  /// Version of the current snapshot (0 = initial graph): the number of
  /// update batches applied so far.
  uint64_t version() const { return snapshot()->version(); }

  /// The sync verb (serve/submit.h) against the pinned current snapshot;
  /// the result's snapshot_version records which one.
  BatchResult ServeBatch(const std::vector<Query>& queries,
                         const Deadline& deadline = Deadline());

  /// The async verb (serve/submit.h) against the snapshot current at
  /// submission. The queued batch owns the pin, so the snapshot outlives
  /// the batch however many swaps land meanwhile; every result — dropped
  /// batches included — carries the pinned version. When no other batch is
  /// in flight (on any snapshot), the batch is looked up in the cache on
  /// the calling thread: one the cache answers whole (or an empty one)
  /// completes before Submit returns, and one with misses is queued with
  /// its hits and plan so dispatch looks nothing up again. A batch arriving
  /// while others are in flight queues unscanned, keeping dispatch FIFO and
  /// the shed contest unchanged under load.
  void Submit(BatchRequest request, Completion done)
      TKC_EXCLUDES(inflight_mu_, snapshots_mu_);

  /// Enqueues one batch of edges for ingestion. Returns immediately with a
  /// future that resolves once a snapshot containing this batch has been
  /// swapped in (Status::OK) or its rebuild cycle failed (the previous
  /// snapshot stays current; every batch of the failed cycle gets the
  /// error). Batches apply strictly in submission order; under swap
  /// pressure the updater coalesces all queued batches into one rebuild
  /// cycle. Queries keep completing against their pinned snapshots
  /// throughout. Blocks only when update_queue_capacity batches are
  /// already waiting.
  std::future<Status> ApplyUpdates(std::vector<RawTemporalEdge> edges);

  /// Holds the updater before its next rebuild cycle: ApplyUpdates batches
  /// keep queueing (up to the queue bound) and coalesce into a single
  /// cycle once ResumeUpdates is called. Operational control for planned
  /// ingest bursts — and the deterministic handle the coalescing tests
  /// drive. Idempotent.
  void PauseUpdates() TKC_EXCLUDES(pause_mu_);
  void ResumeUpdates() TKC_EXCLUDES(pause_mu_);

  /// Shuts the update path down and quiesces the async serving path: no
  /// further ApplyUpdates batches are accepted (they fail fast with
  /// FailedPrecondition), the updater thread finishes its current cycle,
  /// settles the queue, and joins. Batches already queued are applied as
  /// one final coalesced cycle — unless the pause gate is held, in which
  /// case every queued batch is *released with FailedPrecondition*
  /// instead: a held pause promised those batches "not yet", and shutting
  /// down turns that into "never". Either way every ApplyUpdates future
  /// resolves — nothing hangs on the dead updater. Finally runs
  /// DrainAsync() (see below), so Shutdown is safe to call while a network
  /// front end still has batches in flight: once it returns, no completion
  /// is still running.
  /// Serving (ServeBatch / Submit / snapshot) stays available.
  /// Idempotent; the destructor calls it first.
  void Shutdown() TKC_EXCLUDES(pause_mu_, shutdown_mu_, inflight_mu_);

  /// Blocks until every async batch accepted so far, whichever snapshot it
  /// pinned, has run its completion to the end and dropped its pin. The
  /// contract a server's teardown needs: after DrainAsync, destroying
  /// whatever the completions delivered into cannot race a delivery. Does
  /// not block new submissions; callers wanting a true quiesce stop
  /// submitting first. Idempotent, callable repeatedly.
  void DrainAsync() TKC_EXCLUDES(inflight_mu_);

  LiveStats stats() const TKC_EXCLUDES(stats_mu_);

  /// Current update-path health. Transitions: kDegraded on a cycle's first
  /// failed attempt, back to kHealthy when a cycle lands a snapshot,
  /// kUpdatesFailed when a cycle exhausts its retries (a later successful
  /// cycle restores kHealthy). A deterministic per-batch rejection
  /// (InvalidArgument input) does not change health — the machinery is
  /// fine, the input was not.
  HealthState health() const TKC_EXCLUDES(stats_mu_);

 private:
  struct UpdateRequest {
    std::vector<RawTemporalEdge> edges;
    std::shared_ptr<std::promise<Status>> done;
  };

  LiveQueryEngine(std::shared_ptr<const GraphSnapshot> initial,
                  const LiveEngineOptions& options);

  /// Updater thread body: pops update batches, coalesces whatever else is
  /// queued, rebuilds (with retry/backoff on transient failure), swaps.
  void UpdaterLoop() TKC_EXCLUDES(pause_mu_, stats_mu_, snapshots_mu_);

  /// One rebuild cycle's attempt loop: returns the final status, the built
  /// successor on success, and accounts retries/degradation/health.
  Status RebuildWithRetry(const std::shared_ptr<const GraphSnapshot>& base,
                          const std::vector<RawTemporalEdge>& edges,
                          uint64_t next_version,
                          std::shared_ptr<const GraphSnapshot>* next)
      TKC_EXCLUDES(pause_mu_, stats_mu_);

  void SetHealth(HealthState state) TKC_EXCLUDES(stats_mu_);

  /// One queued async submission: the pin on the snapshot current at
  /// Submit, the batch, and its exactly-once completion. A batch Submit
  /// pre-scanned on the pinned engine carries its hit outcomes and miss
  /// plan, so dispatch never looks a query up twice.
  struct AsyncBatch {
    std::shared_ptr<const GraphSnapshot> pin;
    BatchRequest request;
    Completion done;
    bool scanned = false;
    std::vector<RunOutcome> outcomes{};
    QueryEngine::BatchPlan plan{};
  };
  /// Shared in-flight state of one dispatched batch (snapshot.cc).
  struct DispatchedBatch;

  void ScheduleDispatcher() TKC_EXCLUDES(inflight_mu_);
  void DispatchBatches() TKC_EXCLUDES(inflight_mu_);
  void ProcessBatch(AsyncBatch batch) TKC_EXCLUDES(inflight_mu_);
  static void ScanBatch(AsyncBatch* batch);
  /// Settles a served batch: followers filled, counted as served.
  void FinalizeBatch(AsyncBatch&& batch) TKC_EXCLUDES(inflight_mu_);
  /// Settles a dropped batch: every outcome gets `status`.
  void DropBatch(AsyncBatch&& batch, const Status& status)
      TKC_EXCLUDES(inflight_mu_);
  /// Runs the completion on the batch's outcomes, drops the batch (its pin
  /// included), and only then releases the batch's inflight ticket.
  void Deliver(AsyncBatch&& batch) TKC_EXCLUDES(inflight_mu_);
  void FinishInflight() TKC_EXCLUDES(inflight_mu_);

  /// LiveEngineOptions::engine minus preloaded_index: a preloaded admission
  /// index matches only the initial graph, so rebuilt snapshots always
  /// build their own (still building one when preloading asked for one —
  /// incrementally, via PhcIndex::Rebuild, whenever the base snapshot has
  /// an index to rebuild from).
  QueryEngineOptions rebuild_engine_options_;

  /// Guards the current snapshot. A pin holds it for one refcount bump,
  /// the updater's swap for one assignment. Deliberately not
  /// std::atomic<std::shared_ptr>: libstdc++ 12's load releases its
  /// internal lock bit with relaxed ordering, a data race against the
  /// publishing store that TSan reports.
  mutable Mutex snapshots_mu_;
  std::shared_ptr<const GraphSnapshot> current_ TKC_GUARDED_BY(snapshots_mu_);

  /// The serving pool (options.engine.pool, or the shared one): every
  /// snapshot's engine runs on it, and so do the dispatcher and the misses
  /// of async batches.
  ThreadPool* pool_;
  /// The async verb's one request queue, whichever snapshots its batches
  /// pinned, and its dispatcher's occupancy flag.
  BoundedMpscQueue<AsyncBatch> batch_queue_;
  std::atomic<bool> dispatcher_scheduled_{false};
  /// Accepted-but-unsettled async batches plus one ticket for a running
  /// dispatcher task; DrainAsync waits for zero.
  Mutex inflight_mu_;
  CondVar drained_;
  uint64_t inflight_ TKC_GUARDED_BY(inflight_mu_) = 0;

  /// Pool the updater's index builds fan out over (passed to
  /// GraphSnapshot::CreateSuccessor). Deliberately NOT the serving pool: a
  /// rebuild sliced over the serving pool starves in-flight query batches
  /// for its whole duration (at 2 serving threads the one background worker
  /// is shared by the async dispatcher, batch leaders, and rebuild slices —
  /// during-update throughput collapsed to ~2% of idle). As wide as the
  /// serving pool, capped at the hardware core count: rebuild threads past
  /// real cores would only oversubscribe the machine against serving.
  std::unique_ptr<ThreadPool> update_pool_;

  mutable Mutex stats_mu_;
  LiveStats stats_ TKC_GUARDED_BY(stats_mu_);
  HealthState health_ TKC_GUARDED_BY(stats_mu_) = HealthState::kHealthy;
  /// Jitter stream of the retry backoff (updater thread only — written in
  /// the constructor before the thread starts, then touched exclusively by
  /// RebuildWithRetry on the updater thread; no lock to annotate).
  uint64_t jitter_stream_ = 0;

  /// Pause gate for the updater (PauseUpdates/ResumeUpdates); Shutdown
  /// forces it open so queued batches always settle — applied normally, or
  /// released with a failure status when shutdown caught the gate held
  /// (abandon_queued_).
  Mutex pause_mu_;
  CondVar pause_cv_;
  bool paused_ TKC_GUARDED_BY(pause_mu_) = false;
  bool pause_override_ TKC_GUARDED_BY(pause_mu_) = false;
  bool abandon_queued_ TKC_GUARDED_BY(pause_mu_) = false;
  /// Serializes Shutdown's join of the updater thread (Shutdown is
  /// idempotent AND safe to call concurrently). Never taken by the
  /// updater itself.
  Mutex shutdown_mu_;

  /// FIFO of pending update batches feeding the updater thread. The
  /// updater is a dedicated thread (not a pool task) so the rebuild's
  /// PhcIndex::Build/Rebuild genuinely fans out over the serving pool
  /// instead of degrading to an inline loop inside a pool worker.
  BoundedMpscQueue<UpdateRequest> update_queue_;
  /// Started in the constructor; joined exactly once, under shutdown_mu_
  /// (the guard is what makes concurrent Shutdown calls safe).
  std::thread updater_ TKC_GUARDED_BY(shutdown_mu_);
};

}  // namespace tkc

#endif  // TKC_SERVE_SNAPSHOT_H_
