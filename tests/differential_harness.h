#ifndef TKC_TESTS_DIFFERENTIAL_HARNESS_H_
#define TKC_TESTS_DIFFERENTIAL_HARNESS_H_

#include <cstdint>
#include <string>

/// \file differential_harness.h
/// Randomized differential validation of the live serving path: one
/// scenario generates a seeded random temporal graph, a seeded stream of
/// edge-update batches, and a seeded stream of query batches; drives them
/// through a LiveQueryEngine *concurrently* (async submissions interleaved
/// with ApplyUpdates snapshot swaps, plus sync and completion-queue
/// submissions for API coverage); then checks every served outcome
/// bit-identically against the naive per-window peeling oracle evaluated
/// on the exact graph version the engine reports having pinned.
///
/// The version replay leans on the live layer's FIFO contract: version N
/// is the initial graph plus update batches 1..N, so the harness rebuilds
/// the same version chain via TemporalGraph::AppendEdges and runs the
/// oracle on chain[result.snapshot_version]. A wrong pin (torn read, swap
/// racing a batch, stale admission table) surfaces as a result mismatch.

namespace tkc {

/// Shape of one scenario. Everything is derived deterministically from
/// `seed`; `threads` sets the serving pool's total parallelism.
struct DifferentialConfig {
  uint64_t seed = 1;
  int threads = 2;
  uint32_t num_update_events = 4;   ///< ApplyUpdates batches
  uint32_t num_query_batches = 9;   ///< submitted batches
  uint32_t max_queries_per_batch = 12;
  uint32_t max_edges_per_update = 14;
  /// Incremental-maintenance mode: force an admission index, await each
  /// ApplyUpdates before the next, and after every swap assert the
  /// incrementally maintained PhcIndex (delta-aware Rebuild — pointer-
  /// reused and suffix-stitched slices alike) is bit-identical, slice by
  /// slice, to a from-scratch PhcIndex::Build on the swapped-in graph, and
  /// that every per-k core-emergence table (carried with its slice or
  /// derived anew) equals the from-scratch slice's. Any disagreement
  /// counts as a mismatch.
  bool incremental = false;
  /// Fault mode: arm every fault point (`rebuild.fail`, `queue.full`,
  /// `dispatch.slow_worker`) with schedules derived from `seed`, attach
  /// seeded deadlines (unlimited / generous / already-expired / racing) to
  /// every query submission, and run the updater with retry/backoff on.
  /// The oracle contract weakens per query, not per scenario: every
  /// submitted batch must still terminate, and each delivered outcome must
  /// be either oracle-exact against the graph version the engine pinned or
  /// carry an explicit Timeout / ResourceExhausted / FailedPrecondition
  /// status. Failed updates are expected (injected) and are not scenario
  /// failures, but must carry an explicit status, and the updater's
  /// `applied + failed == submitted` accounting must still balance. The
  /// mode ends with an index save/load round trip under
  /// `index_io.corrupt_load`: the truncated load must surface
  /// Status::Corruption, the next load must round-trip bit-identically.
  /// Arms process-global fault points: do not run fault-mode scenarios
  /// concurrently. Mutually exclusive with `incremental`.
  bool faults = false;
  /// Fault mode only: `rebuild.fail` fires on every attempt of the first
  /// rebuild cycle and never again (p = 1 for max_rebuild_attempts fires),
  /// so that cycle exhausts its retries and fails its whole coalesced group
  /// however the updater happens to coalesce. Makes "some update failed"
  /// a certainty rather than a timing-dependent outcome of p = 0.4.
  bool exhaust_first_rebuild = false;
  /// Network mode: front the LiveQueryEngine with a loopback TkcServer and
  /// route every query batch through TkcClient connections — wire encode,
  /// frame reassembly, completion streaming and all — while ApplyUpdates
  /// snapshot swaps land concurrently, exactly as the in-process modes do.
  /// Every wire verdict must be oracle-exact on the graph version the
  /// server reports having pinned, or carry an explicit Timeout /
  /// ResourceExhausted status (seeded wire deadlines race the work on
  /// purpose; `net.read_short` is armed as a verdict-neutral stressor of
  /// incremental frame reassembly). After the scenario the server's
  /// counter invariants must balance: submitted == completed ==
  /// streamed + dropped, accepted == closed + dropped. Arms a process-
  /// global fault point: do not run net-mode scenarios concurrently.
  /// Mutually exclusive with `incremental` and `faults`.
  bool net = false;
};

/// What one scenario observed. `mismatches == 0` and `failed_updates == 0`
/// is a pass; `first_mismatch` carries a reproducible description of the
/// first disagreement (seed, version, query, both outcomes).
struct DifferentialReport {
  uint64_t queries_checked = 0;
  uint64_t mismatches = 0;
  uint64_t failed_updates = 0;
  uint64_t versions_served = 0;  ///< distinct snapshot versions in results
  uint64_t swaps = 0;            ///< snapshot swaps the engine performed
  uint64_t slices_checked = 0;   ///< incremental mode: slices compared
  uint64_t tables_checked = 0;   ///< incremental mode: emergence tables
  uint64_t slices_reused = 0;    ///< updater slices carried by pointer
  uint64_t slices_rebuilt = 0;   ///< updater slices rebuilt
  uint64_t suffix_rebuilds = 0;  ///< updater slices maintained partially
  uint64_t rows_reused = 0;      ///< VCT rows carried across swaps
  uint64_t batches_coalesced = 0;
  uint64_t cache_entries_carried = 0;
  uint64_t explicit_outcomes = 0;  ///< fault/net mode: skip-oracled statuses
  uint64_t rebuild_retries = 0;    ///< fault mode: updater retry attempts
  uint64_t updates_applied = 0;    ///< update batches that landed a swap
  uint64_t wire_responses = 0;     ///< net mode: batches answered over TCP
  std::string first_mismatch;
};

/// Runs one scenario end to end. Thread-safe to call concurrently.
DifferentialReport RunDifferentialScenario(const DifferentialConfig& config);

/// Scenario count for sweep tests: `env_name` (when given and set to a
/// positive integer), else the TKC_DIFF_SCENARIOS environment variable
/// (the CI sanitizer legs shrink it, the Release leg widens it), else
/// `default_count`. The incremental sweep passes
/// TKC_DIFF_INCREMENTAL_SCENARIOS so CI can widen it independently.
uint32_t DifferentialScenarioCount(uint32_t default_count,
                                   const char* env_name = nullptr);

}  // namespace tkc

#endif  // TKC_TESTS_DIFFERENTIAL_HARNESS_H_
