#include "serve/snapshot.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <utility>

#include "util/fault_injection.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace tkc {

namespace {

/// Failures worth retrying: environmental/transient categories where a later
/// attempt can genuinely succeed. A deterministic rejection (InvalidArgument,
/// FailedPrecondition, ...) reproduces on every attempt, so retrying it only
/// delays the inevitable — and would stall the FIFO behind it.
bool IsTransientForRetry(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInternal:
    case StatusCode::kIOError:
    case StatusCode::kCorruption:
    case StatusCode::kTimeout:
      return true;
    default:
      return false;
  }
}

}  // namespace

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "Healthy";
    case HealthState::kDegraded:
      return "Degraded";
    case HealthState::kUpdatesFailed:
      return "UpdatesFailed";
  }
  return "Unknown";
}

StatusOr<std::shared_ptr<GraphSnapshot>> GraphSnapshot::CreateImpl(
    TemporalGraph graph, uint64_t version, const QueryEngineOptions& options) {
  // Two-phase: the graph must reach its final address before the engine
  // captures a pointer to it.
  std::shared_ptr<GraphSnapshot> snapshot(new GraphSnapshot());
  snapshot->graph_ = std::move(graph);
  snapshot->version_ = version;
  auto engine = QueryEngine::Create(snapshot->graph_, options);
  if (!engine.ok()) return engine.status();
  snapshot->engine_.emplace(std::move(engine).value());
  // The engine's internal async tasks pin this snapshot while they run, so
  // dropping the last external pin inside one of those tasks destroys the
  // snapshot without the engine's drain waiting on the running task.
  snapshot->engine_->SetLifetimeGuard(
      std::weak_ptr<const void>(std::shared_ptr<const void>(snapshot)));
  return snapshot;
}

StatusOr<std::shared_ptr<const GraphSnapshot>> GraphSnapshot::Create(
    TemporalGraph graph, uint64_t version, const QueryEngineOptions& options) {
  auto snapshot = CreateImpl(std::move(graph), version, options);
  if (!snapshot.ok()) return snapshot.status();
  return std::shared_ptr<const GraphSnapshot>(std::move(snapshot).value());
}

StatusOr<std::shared_ptr<const GraphSnapshot>> GraphSnapshot::CreateSuccessor(
    const GraphSnapshot& base, GraphUpdate update, uint64_t version,
    const QueryEngineOptions& options) {
  // The delta-only validity proof for cached outcomes: with the compacted
  // timeline and vertex pool preserved, every (k, range) outcome with
  // k > the delta's core bound answers identically on the new graph —
  // index or no index.
  const bool delta_clean = update.delta.timestamps_preserved &&
                           update.delta.vertices_preserved;
  const uint32_t carry_bound =
      update.delta.empty() ? 0 : update.delta.max_core_bound;
  QueryEngineOptions successor_options = options;
  // Delta-aware index maintenance: when the base snapshot has an admission
  // index to rebuild from, produce the successor's index with
  // PhcIndex::Rebuild — clean slices shared by pointer, dirty ones rebuilt
  // over the pool — and hand it to the engine as a preloaded index (a
  // cheap copy: slices are shared). Bit-identical to the from-scratch
  // build the engine would otherwise run.
  PhcIndex rebuilt;
  PhcRebuildStats rebuild_stats;
  const PhcIndex* base_index = base.engine().index();
  const bool want_index =
      (options.build_index || options.preloaded_index != nullptr) &&
      base_index != nullptr && update.graph.num_timestamps() > 0;
  if (want_index) {
    PhcBuildOptions build;
    build.max_k = options.index_max_k;
    // The rebuild fans out over the dedicated update pool when the live
    // layer provides one — never the serving pool, whose workers belong to
    // in-flight query batches.
    build.pool = options.index_build_pool != nullptr ? options.index_build_pool
                 : options.pool != nullptr          ? options.pool
                                                    : &ThreadPool::Shared();
    auto index = PhcIndex::Rebuild(*base_index, update.graph, update.delta,
                                   build, &rebuild_stats);
    if (!index.ok()) return index.status();
    rebuilt = std::move(index).value();
    successor_options.preloaded_index = &rebuilt;  // copied by Create
    successor_options.build_index = true;
  }

  auto snapshot =
      CreateImpl(std::move(update.graph), version, successor_options);
  if (!snapshot.ok()) return snapshot.status();

  SwapStats& swap = (*snapshot)->swap_stats_;
  swap.delta_edges = update.delta.edges_appended;
  swap.slices_reused = rebuild_stats.slices_reused;
  swap.slices_rebuilt = rebuild_stats.slices_rebuilt;
  swap.suffix_rebuilds = rebuild_stats.suffix_rebuilds;
  swap.rows_reused = rebuild_stats.rows_reused;
  swap.rows_total = rebuild_stats.rows_total;
  // Cross-snapshot cache carry-over: entries whose k lies strictly above
  // the delta's proof boundary answer identically on the new graph, so the
  // successor starts warm for exactly that region. Gated on the delta
  // alone — a cache-only engine (no admission index) carries too.
  if (delta_clean) {
    swap.cache_entries_carried =
        (*snapshot)->engine().CarryOverCacheFrom(base.engine(), carry_bound);
  }
  return std::shared_ptr<const GraphSnapshot>(std::move(snapshot).value());
}

StatusOr<std::unique_ptr<LiveQueryEngine>> LiveQueryEngine::Create(
    TemporalGraph initial_graph, const LiveEngineOptions& options) {
  auto initial =
      GraphSnapshot::Create(std::move(initial_graph), 0, options.engine);
  if (!initial.ok()) return initial.status();
  return std::unique_ptr<LiveQueryEngine>(
      new LiveQueryEngine(std::move(initial).value(), options));
}

LiveQueryEngine::LiveQueryEngine(std::shared_ptr<const GraphSnapshot> initial,
                                 const LiveEngineOptions& options)
    : options_(options),
      update_queue_(options.update_queue_capacity),
      updater_([this] { UpdaterLoop(); }) {
  // A preloaded admission index describes exactly one graph — the initial
  // one. Rebuilt snapshots must build their own fresh index (the preloaded
  // pointer may even dangle by then); preloading implies the operator
  // wants an admission index, so rebuilds keep building one — via the
  // delta-aware PhcIndex::Rebuild whenever the base snapshot has an index.
  rebuild_engine_options_ = options.engine;
  if (rebuild_engine_options_.preloaded_index != nullptr) {
    rebuild_engine_options_.preloaded_index = nullptr;
    rebuild_engine_options_.build_index = true;
  }
  // De-contention: rebuilds fan out over a pool that shares no worker with
  // the serving pool, so a swap in progress costs queries nothing but
  // memory bandwidth.
  ThreadPool* update_pool = options_.update_pool;
  if (update_pool == nullptr) {
    const ThreadPool* serve_pool = options_.engine.pool != nullptr
                                       ? options_.engine.pool
                                       : &ThreadPool::Shared();
    // Default size: the serving pool's width, capped at the physical core
    // count — rebuild slices beyond real cores buy no parallelism, they
    // only oversubscribe the machine against the serving threads.
    size_t threads = options_.update_pool_threads;
    if (threads == 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      threads = static_cast<size_t>(serve_pool->num_threads());
      if (hw > 0 && threads > hw) threads = hw;
    }
    owned_update_pool_ =
        std::make_unique<ThreadPool>(static_cast<int>(threads));
    update_pool = owned_update_pool_.get();
  }
  rebuild_engine_options_.index_build_pool = update_pool;
  jitter_stream_ = SplitMix64(options.retry_jitter_seed);
  // The updater thread is already running (started in the init list); no
  // batch can reach it before Create returns, but take the guard anyway so
  // the "current_ and all_snapshots_ under snapshots_mu_" invariant has no
  // carve-out.
  MutexLock lock(snapshots_mu_);
  current_ = initial;
  all_snapshots_.push_back(std::move(initial));
}

void LiveQueryEngine::Shutdown() {
  {
    // Force the pause gate open so a paused updater is never stuck at it.
    // If the gate was genuinely held, the queued batches were promised
    // "not yet" — release them with a failure instead of applying them
    // behind the caller's back.
    MutexLock lock(pause_mu_);
    pause_override_ = true;
    if (paused_) abandon_queued_ = true;
  }
  pause_cv_.NotifyAll();
  update_queue_.Close();  // queued batches still settle, then the loop exits
  // Serialize the join: concurrent Shutdown() calls must not race the
  // joinable()/join() pair (the loser would join an already-joined thread
  // and throw). The updater never takes this mutex, so holding it across
  // the join cannot deadlock; late callers block until the first join
  // finishes, then see joinable() == false.
  MutexLock join_lock(shutdown_mu_);
  if (updater_.joinable()) updater_.join();
  // With the updater gone, quiesce the async serving path too: a caller
  // shutting the engine down while a server still holds completion queues
  // must be able to destroy those queues the moment this returns.
  DrainAsync();
}

void LiveQueryEngine::DrainAsync() {
  // Drain every snapshot that still exists, not just the current one: a
  // batch pinned to an older version may still be delivering (e.g. into a
  // caller's BatchCompletionQueue), and the caller must be able to destroy
  // that queue right after this returns. An expired weak_ptr means every
  // pin is gone, which implies that snapshot has nothing in flight. The
  // list is copied (and pruned), not cleared, so the call is repeatable —
  // the destructor drains again after Shutdown already did.
  std::vector<std::weak_ptr<const GraphSnapshot>> snapshots;
  {
    MutexLock lock(snapshots_mu_);
    all_snapshots_.erase(
        std::remove_if(all_snapshots_.begin(), all_snapshots_.end(),
                       [](const std::weak_ptr<const GraphSnapshot>& w) {
                         return w.expired();
                       }),
        all_snapshots_.end());
    snapshots = all_snapshots_;
  }
  for (const auto& weak : snapshots) {
    if (std::shared_ptr<const GraphSnapshot> alive = weak.lock()) {
      alive->engine().DrainAsync();
    }
  }
}

LiveQueryEngine::~LiveQueryEngine() {
  Shutdown();  // updater joined + async serving path drained (DrainAsync)
}

std::shared_ptr<const GraphSnapshot> LiveQueryEngine::snapshot() const {
  MutexLock lock(snapshots_mu_);
  return current_;
}

BatchResult LiveQueryEngine::ServeBatch(const std::vector<Query>& queries,
                                        const Deadline& deadline) {
  std::shared_ptr<const GraphSnapshot> pin = snapshot();
  BatchResult result;
  result.outcomes = pin->engine().ServeBatch(queries, deadline);
  result.snapshot_version = pin->version();
  return result;
}

void LiveQueryEngine::Submit(BatchRequest request, Completion done) {
  std::shared_ptr<const GraphSnapshot> pin = snapshot();
  // The completion owns a pin: the snapshot (graph, engine, index) cannot
  // die before the batch's tasks are done with it, no matter how many swaps
  // happen in between. Dropped batches (Timeout/ResourceExhausted) settle
  // through the same completion, so they too carry the pinned version. The
  // local pin keeps the engine alive across its own Submit call even when
  // the batch settles inline.
  pin->engine().Submit(std::move(request),
                       [pin, done = std::move(done)](BatchResult&& result) {
                         result.snapshot_version = pin->version();
                         done(std::move(result));
                       });
}

std::future<Status> LiveQueryEngine::ApplyUpdates(
    std::vector<RawTemporalEdge> edges) {
  UpdateRequest request;
  request.edges = std::move(edges);
  request.done = std::make_shared<std::promise<Status>>();
  std::future<Status> future = request.done->get_future();
  if (!update_queue_.Push(std::move(request))) {
    // Only possible during/after destruction; report rather than hang.
    auto rejected = std::make_shared<std::promise<Status>>();
    rejected->set_value(
        Status::FailedPrecondition("live engine is shutting down"));
    return rejected->get_future();
  }
  return future;
}

void LiveQueryEngine::PauseUpdates() {
  MutexLock lock(pause_mu_);
  paused_ = true;
}

void LiveQueryEngine::ResumeUpdates() {
  {
    MutexLock lock(pause_mu_);
    paused_ = false;
  }
  pause_cv_.NotifyAll();
}

void LiveQueryEngine::UpdaterLoop() {
  UpdateRequest request;
  while (update_queue_.Pop(&request)) {
    bool abandon = false;
    {
      // Pause gate: batches queued while held accumulate and coalesce
      // into the cycle below once resumed (or once Shutdown forces the
      // gate open). The predicate loop is written out so the analysis sees
      // the whole wait under pause_mu_ (a predicate lambda would be checked
      // as a separate, capability-blind function).
      MutexLock lock(pause_mu_);
      while (paused_ && !pause_override_) pause_cv_.Wait(pause_mu_);
      abandon = abandon_queued_;
    }
    // Coalesce: one rebuild cycle absorbs every batch queued right now —
    // under swap pressure the updater pays one graph+index rebuild for the
    // whole backlog instead of one per batch.
    std::vector<UpdateRequest> group;
    group.push_back(std::move(request));
    while (update_queue_.TryPop(&request)) group.push_back(std::move(request));

    if (abandon) {
      // Shutdown caught the pause gate held: the queued batches were
      // promised "not yet", so release every one of them with a failure
      // status instead of applying them during teardown — and never leave
      // a future unresolved.
      {
        MutexLock lock(stats_mu_);
        stats_.update.batches_submitted += group.size();
        stats_.failed_updates += group.size();
      }
      const Status status = Status::FailedPrecondition(
          "live engine shut down while updates were paused");
      for (UpdateRequest& r : group) r.done->set_value(status);
      group.clear();
      request = UpdateRequest();
      continue;
    }
    size_t total_edges = 0;
    for (const UpdateRequest& r : group) total_edges += r.edges.size();
    // The requests' edge vectors are dead after the merge (only their
    // promises are needed below), so move rather than copy.
    std::vector<RawTemporalEdge> edges;
    if (group.size() == 1) {
      edges = std::move(group.front().edges);
    } else {
      edges.reserve(total_edges);
      for (UpdateRequest& r : group) {
        edges.insert(edges.end(), std::make_move_iterator(r.edges.begin()),
                     std::make_move_iterator(r.edges.end()));
        r.edges.clear();
      }
    }

    WallTimer rebuild_timer;
    // Rebuild off-thread: serving continues on the current snapshot while
    // this thread (and, inside PhcIndex::Rebuild, the serving pool) builds
    // the successor. Transient failures retry with capped backoff inside
    // RebuildWithRetry; the last good snapshot keeps serving throughout.
    std::shared_ptr<const GraphSnapshot> base = snapshot();
    std::shared_ptr<const GraphSnapshot> next;
    // Version advances by the whole group: version N stays "initial
    // graph + update batches 1..N" even when swaps coalesce.
    Status status = RebuildWithRetry(base, edges,
                                     base->version() + group.size(), &next);
    const double rebuild_seconds = rebuild_timer.ElapsedSeconds();

    double swap_seconds = 0;
    if (status.ok()) {
      WallTimer swap_timer;
      {
        // The swap is one assignment under the pin mutex: queries pin
        // before or after, never mid-swap (no torn reads). `base` still
        // holds the old snapshot, so no destructor runs under the lock.
        // The new version is tracked for destructor-time draining; expired
        // entries (snapshots whose last pin is gone) are pruned here so
        // the list stays proportional to snapshots actually alive.
        MutexLock lock(snapshots_mu_);
        current_ = next;
        all_snapshots_.erase(
            std::remove_if(all_snapshots_.begin(), all_snapshots_.end(),
                           [](const std::weak_ptr<const GraphSnapshot>& w) {
                             return w.expired();
                           }),
            all_snapshots_.end());
        all_snapshots_.push_back(next);
      }
      swap_seconds = swap_timer.ElapsedSeconds();
    }

    {
      MutexLock lock(stats_mu_);
      stats_.update.batches_submitted += group.size();
      // Riders saved a cycle whether this one succeeded or failed; a
      // failed cycle must not double-charge them (they count once in
      // failed_updates, once here as coalesced — never as applied).
      stats_.update.batches_coalesced += group.size() - 1;
      if (status.ok()) {
        const GraphSnapshot::SwapStats& swap = next->swap_stats();
        ++stats_.swaps;
        stats_.edges_applied += edges.size();
        stats_.last_rebuild_seconds = rebuild_seconds;
        stats_.last_swap_seconds = swap_seconds;
        stats_.last_delta_edges = swap.delta_edges;
        stats_.update.batches_applied += group.size();
        stats_.update.slices_reused += swap.slices_reused;
        stats_.update.slices_rebuilt += swap.slices_rebuilt;
        stats_.update.suffix_rebuilds += swap.suffix_rebuilds;
        stats_.update.rows_reused += swap.rows_reused;
        stats_.update.rows_total += swap.rows_total;
        stats_.update.emergence_tables_carried += swap.slices_reused;
        stats_.update.cache_entries_carried += swap.cache_entries_carried;
        if (swap.slices_reused > 0 || swap.suffix_rebuilds > 0) {
          ++stats_.update.incremental_swaps;
        }
      } else {
        // The whole coalesced group is dropped: every batch in it failed,
        // including the ones that merely rode along.
        stats_.failed_updates += group.size();
      }
    }
    for (UpdateRequest& r : group) r.done->set_value(status);
    group.clear();
    request = UpdateRequest();  // release the edges/promise promptly
  }
}

Status LiveQueryEngine::RebuildWithRetry(
    const std::shared_ptr<const GraphSnapshot>& base,
    const std::vector<RawTemporalEdge>& edges, uint64_t next_version,
    std::shared_ptr<const GraphSnapshot>* next) {
  const int max_attempts = std::max(1, options_.max_rebuild_attempts);
  double backoff_ms = std::max(0.0, options_.retry_backoff_initial_ms);
  const double backoff_cap =
      std::max(backoff_ms, options_.retry_backoff_max_ms);
  Status status;
  bool degraded = false;
  WallTimer degraded_timer;
  uint64_t retries = 0;
  for (int attempt = 1;; ++attempt) {
    auto update = base->graph().AppendEdges(edges);
    status = update.ok() ? Status::OK() : update.status();
    if (status.ok() && FaultFires(kFaultRebuildFail)) {
      status = Status::Internal("injected rebuild failure (rebuild.fail)");
    }
    if (status.ok()) {
      auto built = GraphSnapshot::CreateSuccessor(
          *base, std::move(update).value(), next_version,
          rebuild_engine_options_);
      status = built.ok() ? Status::OK() : built.status();
      if (built.ok()) *next = std::move(built).value();
    }
    if (status.ok() || !IsTransientForRetry(status) ||
        attempt >= max_attempts) {
      break;
    }
    if (!degraded) {
      degraded = true;
      degraded_timer.Restart();
      SetHealth(HealthState::kDegraded);
    }
    ++retries;
    // Capped exponential backoff with seeded jitter in [0.5, 1.0): repeated
    // failures back off but never in lockstep with anything else seeded
    // differently. Shutdown (pause_override_) interrupts the wait — the
    // cycle then fails with the error it was retrying instead of holding
    // the teardown hostage for the remaining backoff.
    jitter_stream_ = SplitMix64(jitter_stream_);
    const double unit = static_cast<double>(jitter_stream_ >> 11) * 0x1.0p-53;
    const double wait_ms = backoff_ms * (0.5 + 0.5 * unit);
    backoff_ms = std::min(backoff_ms * 2.0, backoff_cap);
    bool shutting_down = false;
    {
      // Deadline computed once, then an explicit predicate loop against it:
      // equivalent to wait_for(lock, wait_ms, pred) but in a shape the
      // analysis can follow (no capability-blind predicate lambda).
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double, std::milli>(wait_ms));
      MutexLock lock(pause_mu_);
      while (!pause_override_) {
        if (pause_cv_.WaitUntil(pause_mu_, deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
      shutting_down = pause_override_;
    }
    if (shutting_down) break;
  }
  {
    MutexLock lock(stats_mu_);
    stats_.update.rebuild_retries += retries;
    if (degraded) {
      stats_.update.degraded_ms += static_cast<uint64_t>(
          degraded_timer.ElapsedSeconds() * 1000.0 + 0.5);
    }
  }
  if (status.ok()) {
    SetHealth(HealthState::kHealthy);
  } else if (IsTransientForRetry(status)) {
    // Retries exhausted (or shutdown cut them short). A deterministic
    // rejection deliberately does NOT land here: bad input is the batch's
    // problem, not the update machinery's.
    SetHealth(HealthState::kUpdatesFailed);
  }
  return status;
}

void LiveQueryEngine::SetHealth(HealthState state) {
  MutexLock lock(stats_mu_);
  health_ = state;
}

HealthState LiveQueryEngine::health() const {
  MutexLock lock(stats_mu_);
  return health_;
}

LiveStats LiveQueryEngine::stats() const {
  MutexLock lock(stats_mu_);
  return stats_;
}

UpdateStats LiveQueryEngine::update_stats() const {
  MutexLock lock(stats_mu_);
  return stats_.update;
}

}  // namespace tkc
