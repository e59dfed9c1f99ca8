#include "serve/query_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "datasets/generators.h"
#include "graph/graph_stats.h"
#include "graph/window_peeler.h"
#include "serve/snapshot.h"
#include "util/thread_pool.h"

namespace tkc {
namespace {

TemporalGraph ServeGraph() {
  SyntheticSpec spec;
  spec.name = "serve";
  spec.num_vertices = 40;
  spec.num_edges = 800;
  spec.num_timestamps = 200;
  spec.burstiness = 0.3;
  spec.seed = 3;
  return GenerateSynthetic(spec);
}

/// The workload the bit-identity tests serve: generated valid queries plus
/// handcrafted empty-result, full-span, and invalid queries.
std::vector<Query> MixedQueries(const TemporalGraph& g, uint32_t kmax) {
  WorkloadSpec spec;
  spec.num_queries = 4;
  spec.range_fraction = 0.15;
  auto generated = GenerateQueries(g, kmax, spec);
  EXPECT_TRUE(generated.ok()) << generated.status().ToString();
  std::vector<Query> queries = generated.ok() ? *generated
                                              : std::vector<Query>{};
  queries.push_back(Query{kmax + 5, Window{1, g.num_timestamps()}});  // empty
  queries.push_back(Query{2, g.FullRange()});
  queries.push_back(Query{2, Window{5, 5}});           // single timestamp
  queries.push_back(Query{3, Window{0, 10}});          // invalid: start < 1
  queries.push_back(Query{3, Window{10, 5}});          // invalid: reversed
  queries.push_back(
      Query{3, Window{1, g.num_timestamps() + 50}});   // invalid: past span
  return queries;
}

/// Result fields must be bit-identical; execution fields (timings, memory)
/// are engine artifacts and deliberately not compared.
void ExpectSameResults(const RunOutcome& serial, const RunOutcome& served,
                       const char* context) {
  ASSERT_EQ(serial.status.code(), served.status.code()) << context;
  if (!serial.status.ok()) return;
  EXPECT_EQ(serial.num_cores, served.num_cores) << context;
  EXPECT_EQ(serial.result_size_edges, served.result_size_edges) << context;
  EXPECT_EQ(serial.vct_size, served.vct_size) << context;
  EXPECT_EQ(serial.ecs_size, served.ecs_size) << context;
}

TEST(QueryEngineBitIdenticalTest, MatchesSerialRunnerAt1And2And8Threads) {
  const AlgorithmKind kind = AlgorithmKind::kEnum;
  TemporalGraph g = ServeGraph();
  GraphStats stats = ComputeGraphStats(g);
  std::vector<Query> queries = MixedQueries(g, stats.kmax);

  std::vector<RunOutcome> reference;
  reference.reserve(queries.size());
  for (const Query& q : queries) {
    reference.push_back(RunAlgorithm(kind, g, q));
  }

  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    QueryEngineOptions options;
    options.pool = &pool;
    options.build_index = true;  // exercise the admission fast path too
    auto engine = QueryEngine::Create(g, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    std::vector<RunOutcome> served = engine->ServeBatch(queries);
    ASSERT_EQ(served.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      std::string context = std::string(AlgorithmName(kind)) + " threads=" +
                            std::to_string(threads) + " query#" +
                            std::to_string(i);
      ExpectSameResults(reference[i], served[i], context.c_str());
    }
    // Serving the same batch again must reproduce the same results from the
    // cache (hits for every query whose outcome was cacheable).
    std::vector<RunOutcome> replay = engine->ServeBatch(queries);
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectSameResults(reference[i], replay[i], "replay");
    }
  }
}

TEST(QueryEngineAdmissionTest, EmergenceTableMatchesPeelingOracle) {
  TemporalGraph g = ServeGraph();
  GraphStats stats = ComputeGraphStats(g);
  QueryEngineOptions options;
  options.build_index = true;
  auto engine = QueryEngine::Create(g, options);
  ASSERT_TRUE(engine.ok());
  ASSERT_NE(engine->index(), nullptr);
  // GenerateQueries' invariant: a range contains a temporal k-core iff the
  // widest window's k-core is non-empty. Check the admission index's
  // MayContainCore against the peeling oracle over a grid of (k, range).
  const Timestamp tmax = g.num_timestamps();
  for (uint32_t k = 1; k <= stats.kmax + 2; ++k) {
    for (Timestamp start : {Timestamp{1}, Timestamp{tmax / 3},
                            Timestamp{tmax / 2}, Timestamp{tmax - 5}}) {
      for (Timestamp end :
           {start, Timestamp{start + 10}, Timestamp{(start + tmax) / 2},
            tmax}) {
        if (start < 1 || end < start || end > tmax) continue;
        Window range{start, end};
        std::vector<bool> in_core = ComputeWindowCoreVertices(g, k, range);
        bool oracle =
            std::find(in_core.begin(), in_core.end(), true) != in_core.end();
        EXPECT_EQ(engine->index()->MayContainCore(k, range), oracle)
            << "k=" << k << " range=[" << start << "," << end << "]";
      }
    }
  }
}

TEST(QueryEngineAdmissionTest, RejectionProducesPipelineIdenticalOutcome) {
  TemporalGraph g = ServeGraph();
  GraphStats stats = ComputeGraphStats(g);
  QueryEngineOptions options;
  options.build_index = true;
  auto engine = QueryEngine::Create(g, options);
  ASSERT_TRUE(engine.ok());

  const Query empty_query{stats.kmax + 3, Window{2, g.num_timestamps() / 2}};
  RunOutcome pipeline = RunAlgorithm(AlgorithmKind::kEnum, g, empty_query);
  RunOutcome served = engine->ServeBatch({empty_query})[0];
  ExpectSameResults(pipeline, served, "rejected query");
  EXPECT_EQ(engine->stats().index_rejections, 1u);
  EXPECT_EQ(engine->stats().executed, 0u);
}

TEST(QueryEngineCacheTest, RepeatedBatchHitsWithoutReexecution) {
  TemporalGraph g = ServeGraph();
  GraphStats stats = ComputeGraphStats(g);
  WorkloadSpec spec;
  spec.num_queries = 3;
  auto queries = GenerateQueries(g, stats.kmax, spec);
  ASSERT_TRUE(queries.ok());

  ThreadPool pool(2);
  QueryEngineOptions options;
  options.pool = &pool;
  auto engine = QueryEngine::Create(g, options);
  ASSERT_TRUE(engine.ok());

  std::vector<RunOutcome> first = engine->ServeBatch(*queries);
  ServeStats after_first = engine->stats();
  EXPECT_EQ(after_first.executed, queries->size());
  EXPECT_EQ(after_first.cache_hits, 0u);

  std::vector<RunOutcome> second = engine->ServeBatch(*queries);
  ServeStats after_second = engine->stats();
  EXPECT_EQ(after_second.executed, queries->size());  // nothing re-ran
  EXPECT_EQ(after_second.cache_hits, queries->size());
  for (size_t i = 0; i < queries->size(); ++i) {
    ExpectSameResults(first[i], second[i], "cache replay");
  }

  engine->ClearCache();
  engine->ServeBatch(*queries);
  EXPECT_EQ(engine->stats().executed, 2 * queries->size());
}

TEST(QueryEngineCacheTest, BoundedCapacityEvicts) {
  TemporalGraph g = ServeGraph();
  GraphStats stats = ComputeGraphStats(g);
  WorkloadSpec spec;
  spec.num_queries = 3;
  auto queries = GenerateQueries(g, stats.kmax, spec);
  ASSERT_TRUE(queries.ok());
  // Make the three queries distinct cache keys even if ranges repeat.
  (*queries)[1].range.end = (*queries)[1].range.end - 1;
  (*queries)[2].range.start = (*queries)[2].range.start + 1;

  QueryEngineOptions options;
  // Capacity 1 caps the striped cache at one stripe (a stripe needs room
  // for an outcome), so the eviction order below is exact LRU whatever the
  // keys hash to.
  options.cache_capacity = 1;
  auto engine = QueryEngine::Create(g, options);
  ASSERT_TRUE(engine.ok());

  for (const Query& q : *queries) engine->ServeBatch({q});
  EXPECT_EQ(engine->stats().cache_evictions, queries->size() - 1);
  // Query 0 was evicted (LRU), so re-serving it executes again; re-served
  // right after, it is resident and hits.
  engine->ServeBatch({(*queries)[0]});
  engine->ServeBatch({(*queries)[0]});
  ServeStats stats_now = engine->stats();
  EXPECT_EQ(stats_now.executed, queries->size() + 1);
  EXPECT_EQ(stats_now.cache_hits, 1u);
}

TEST(QueryEngineCacheTest, InBatchDuplicatesExecuteOnce) {
  TemporalGraph g = ServeGraph();
  GraphStats stats = ComputeGraphStats(g);
  WorkloadSpec spec;
  spec.num_queries = 2;
  auto queries = GenerateQueries(g, stats.kmax, spec);
  ASSERT_TRUE(queries.ok());
  // A batch of 6 submissions over 2 distinct queries.
  std::vector<Query> batch = {(*queries)[0], (*queries)[1], (*queries)[0],
                              (*queries)[0], (*queries)[1], (*queries)[1]};

  ThreadPool pool(2);
  QueryEngineOptions options;
  options.pool = &pool;
  auto engine = QueryEngine::Create(g, options);
  ASSERT_TRUE(engine.ok());
  std::vector<RunOutcome> served = engine->ServeBatch(batch);
  ServeStats after = engine->stats();
  EXPECT_EQ(after.executed, 2u);
  EXPECT_EQ(after.batch_dedup_hits, 4u);
  EXPECT_EQ(after.queries_served, batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    RunOutcome reference = RunAlgorithm(AlgorithmKind::kEnum, g, batch[i]);
    ExpectSameResults(reference, served[i], "deduped batch");
  }
}

TEST(QueryEngineConcurrencyTest, ConcurrentBatchSubmission) {
  TemporalGraph g = ServeGraph();
  GraphStats stats = ComputeGraphStats(g);
  std::vector<Query> queries = MixedQueries(g, stats.kmax);

  std::vector<RunOutcome> reference;
  for (const Query& q : queries) {
    reference.push_back(RunAlgorithm(AlgorithmKind::kEnum, g, q));
  }

  ThreadPool pool(4);
  QueryEngineOptions options;
  options.pool = &pool;
  options.build_index = true;
  auto engine = QueryEngine::Create(g, options);
  ASSERT_TRUE(engine.ok());

  constexpr int kClients = 4;
  std::vector<std::vector<RunOutcome>> results(kClients);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back(
          [&, c] { results[c] = engine->ServeBatch(queries); });
    }
    for (std::thread& t : clients) t.join();
  }
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(results[c].size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectSameResults(reference[i], results[c][i], "concurrent client");
    }
  }
  EXPECT_EQ(engine->stats().queries_served, kClients * queries.size());
  EXPECT_EQ(engine->stats().batches, static_cast<uint64_t>(kClients));
}

TEST(QueryEngineIndexTest, IndexAnswersPointLookups) {
  TemporalGraph g = ServeGraph();
  GraphStats stats = ComputeGraphStats(g);
  QueryEngineOptions options;
  options.build_index = true;
  auto engine = QueryEngine::Create(g, options);
  ASSERT_TRUE(engine.ok());
  const PhcIndex* index = engine->index();
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->max_k(), stats.kmax);

  const Window window{1, g.num_timestamps()};
  std::vector<bool> in_core = ComputeWindowCoreVertices(g, 2, window);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    EXPECT_EQ(index->VertexInCore(u, window, 2), in_core[u]) << "u=" << u;
  }
}

TEST(QueryEngineIndexTest, CappedIndexNeverRejectsAboveCap) {
  TemporalGraph g = ServeGraph();
  GraphStats stats = ComputeGraphStats(g);
  ASSERT_GT(stats.kmax, 2u);
  PhcBuildOptions build;
  build.max_k = 2;  // below the true kmax
  auto capped = PhcIndex::Build(g, g.FullRange(), build);
  ASSERT_TRUE(capped.ok());
  ASSERT_FALSE(capped->complete());
  QueryEngineOptions options;
  options.preloaded_index = &*capped;
  auto engine = QueryEngine::Create(g, options);
  ASSERT_TRUE(engine.ok());
  ASSERT_EQ(engine->index()->max_k(), 2u);
  // k above the cap is not provably empty, so the engine must execute, and
  // the result must still match the pipeline.
  const Query q{3, Window{1, g.num_timestamps()}};
  RunOutcome served = engine->ServeBatch({q})[0];
  RunOutcome pipeline = RunAlgorithm(AlgorithmKind::kEnum, g, q);
  ExpectSameResults(pipeline, served, "above-cap query");
  EXPECT_EQ(engine->stats().index_rejections, 0u);
}

// --- robustness: deadlines and shedding -------------------------------------

TEST(QueryEngineDeadlineTest, ExpiredDeadlineTimesOutWithoutTouchingIndex) {
  TemporalGraph g = ServeGraph();
  QueryEngineOptions options;
  options.build_index = true;
  auto engine = QueryEngine::Create(g, options);
  ASSERT_TRUE(engine.ok());
  const Query query{2, Window{1, g.num_timestamps() / 2}};
  const Deadline expired = Deadline::AfterSeconds(-1.0);

  // Cache-miss path: nothing is cached yet, and the rejection must not
  // consult the cache, the admission index, or the algorithm.
  RunOutcome out = engine->ServeBatch({query}, expired)[0];
  EXPECT_EQ(out.status.code(), StatusCode::kTimeout);
  ServeStats stats = engine->stats();
  EXPECT_EQ(stats.executed, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);  // the cache was never even consulted
  EXPECT_EQ(stats.index_rejections, 0u);
  EXPECT_EQ(stats.deadlines_expired, 1u);

  // Cache-hit path: serve it for real first, then the expired deadline must
  // still answer Timeout without replaying the cached outcome.
  RunOutcome real = engine->ServeBatch({query})[0];
  ASSERT_TRUE(real.status.ok());
  const uint64_t hits_before = engine->stats().cache_hits;
  out = engine->ServeBatch({query}, expired)[0];
  EXPECT_EQ(out.status.code(), StatusCode::kTimeout);
  stats = engine->stats();
  EXPECT_EQ(stats.cache_hits, hits_before);  // no lookup happened
  EXPECT_EQ(stats.deadlines_expired, 2u);

  // Sanity: an unexpired deadline serves the real (cached) outcome.
  out = engine->ServeBatch({query}, Deadline::AfterSeconds(30.0))[0];
  ASSERT_TRUE(out.status.ok());
  ExpectSameResults(real, out, "unexpired deadline");
}

TEST(QueryEngineDeadlineTest, ServeBatchWithExpiredDeadlineAllTimeout) {
  TemporalGraph g = ServeGraph();
  GraphStats gstats = ComputeGraphStats(g);
  std::vector<Query> queries = MixedQueries(g, gstats.kmax);
  auto engine = QueryEngine::Create(g);
  ASSERT_TRUE(engine.ok());
  std::vector<RunOutcome> outcomes =
      engine->ServeBatch(queries, Deadline::AfterSeconds(-1.0));
  ASSERT_EQ(outcomes.size(), queries.size());
  for (const RunOutcome& out : outcomes) {
    EXPECT_EQ(out.status.code(), StatusCode::kTimeout);
  }
  EXPECT_EQ(engine->stats().executed, 0u);
  EXPECT_EQ(engine->stats().deadlines_expired, 1u);
}

// --- the async verb, on LiveQueryEngine -------------------------------------
//
// Submit lives on the live engine, whose one request queue runs each batch
// on the engine of the snapshot it pinned. `engine` below is that engine
// (version 0; these tests apply no update unless they say so), so every
// counter assertion reads where the batch was served.

TEST(LiveEngineAsyncTest, SubmitMatchesServeBatch) {
  TemporalGraph g = ServeGraph();
  GraphStats stats = ComputeGraphStats(g);
  std::vector<Query> queries = MixedQueries(g, stats.kmax);
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    LiveEngineOptions options;
    options.engine.pool = &pool;
    auto live = LiveQueryEngine::Create(g, options);
    ASSERT_TRUE(live.ok());
    QueryEngine* engine = &(*live)->snapshot()->engine();
    std::vector<RunOutcome> sync = engine->ServeBatch(queries);
    engine->ClearCache();  // async run must execute, not replay
    std::future<BatchResult> future = SubmitFuture(**live, {queries});
    BatchResult async = future.get();
    ASSERT_EQ(async.outcomes.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectSameResults(sync[i], async.outcomes[i], "async");
    }
    EXPECT_EQ(engine->stats().async_batches, 1u);
  }
}

TEST(LiveEngineAsyncTest, ManyOverlappingSubmissionsAllComplete) {
  TemporalGraph g = ServeGraph();
  GraphStats stats = ComputeGraphStats(g);
  std::vector<Query> queries = MixedQueries(g, stats.kmax);
  ThreadPool pool(4);
  LiveEngineOptions options;
  options.engine.pool = &pool;
  options.async_queue_capacity = 2;  // tiny bound: forces backpressure
  auto live = LiveQueryEngine::Create(g, options);
  ASSERT_TRUE(live.ok());
  QueryEngine* engine = &(*live)->snapshot()->engine();
  std::vector<RunOutcome> reference = engine->ServeBatch(queries);
  std::vector<std::future<BatchResult>> futures;
  for (int b = 0; b < 16; ++b) {
    futures.push_back(SubmitFuture(**live, {queries}));
  }
  for (std::future<BatchResult>& f : futures) {
    BatchResult result = f.get();
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectSameResults(reference[i], result.outcomes[i], "overlapping");
    }
  }
  EXPECT_EQ(engine->stats().async_batches, 16u);
}

TEST(LiveEngineAsyncTest, CompletionCallbacksRunOncePerBatch) {
  TemporalGraph g = ServeGraph();
  GraphStats stats = ComputeGraphStats(g);
  std::vector<Query> queries = MixedQueries(g, stats.kmax);
  ThreadPool pool(4);
  LiveEngineOptions options;
  options.engine.pool = &pool;
  auto live = LiveQueryEngine::Create(g, options);
  ASSERT_TRUE(live.ok());
  QueryEngine* engine = &(*live)->snapshot()->engine();
  std::vector<RunOutcome> reference = engine->ServeBatch(queries);
  engine->ClearCache();  // the batches must execute, not replay
  // Many in-flight batches multiplexed through plain callbacks: each
  // completion writes only its own slot, so no lock is needed until the
  // drain below orders every write before the reads.
  constexpr size_t kBatches = 6;
  std::vector<BatchResult> results(kBatches);
  std::vector<std::atomic<int>> calls(kBatches);
  for (size_t b = 0; b < kBatches; ++b) {
    (*live)->Submit({queries}, [&results, &calls, b](BatchResult&& result) {
      results[b] = std::move(result);
      calls[b].fetch_add(1);
    });
  }
  (*live)->DrainAsync();
  for (size_t b = 0; b < kBatches; ++b) {
    EXPECT_EQ(calls[b].load(), 1) << "batch " << b;
    ASSERT_EQ(results[b].outcomes.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectSameResults(reference[i], results[b].outcomes[i], "callback");
    }
  }
}

TEST(LiveEngineAsyncTest, EmptyBatchCompletesImmediately) {
  TemporalGraph g = ServeGraph();
  auto live = LiveQueryEngine::Create(g);
  ASSERT_TRUE(live.ok());
  BatchResult result = SubmitFuture(**live, {}).get();
  EXPECT_TRUE(result.outcomes.empty());
}

TEST(LiveEngineAsyncTest, DestructorDrainsInFlightBatches) {
  TemporalGraph g = ServeGraph();
  GraphStats stats = ComputeGraphStats(g);
  std::vector<Query> queries = MixedQueries(g, stats.kmax);
  ThreadPool pool(4);
  std::vector<std::future<BatchResult>> futures;
  {
    LiveEngineOptions options;
    options.engine.pool = &pool;
    auto live = LiveQueryEngine::Create(g, options);
    ASSERT_TRUE(live.ok());
    for (int b = 0; b < 8; ++b) {
      futures.push_back(SubmitFuture(**live, {queries}));
    }
    // The engine leaves scope with batches in flight: its destructor must
    // block until every future is fulfillable.
  }
  for (std::future<BatchResult>& f : futures) {
    BatchResult result = f.get();
    EXPECT_EQ(result.outcomes.size(), queries.size());
    for (const RunOutcome& out : result.outcomes) {
      (void)out;  // fulfilled — that is the assertion
    }
  }
}

TEST(LiveEngineDeadlineTest, SubmitExpiredDeadlineSettlesWithTimeout) {
  TemporalGraph g = ServeGraph();
  GraphStats gstats = ComputeGraphStats(g);
  std::vector<Query> queries = MixedQueries(g, gstats.kmax);
  ThreadPool pool(2);
  LiveEngineOptions options;
  options.engine.pool = &pool;
  auto live = LiveQueryEngine::Create(g, options);
  ASSERT_TRUE(live.ok());
  QueryEngine* engine = &(*live)->snapshot()->engine();
  BatchResult result =
      SubmitFuture(**live, {queries, Deadline::AfterSeconds(-1.0)}).get();
  ASSERT_EQ(result.outcomes.size(), queries.size());
  for (const RunOutcome& out : result.outcomes) {
    EXPECT_EQ(out.status.code(), StatusCode::kTimeout);
  }
  EXPECT_EQ(engine->stats().deadlines_expired, 1u);
  EXPECT_EQ(engine->stats().executed, 0u);
}

TEST(LiveEngineDeadlineTest, BatchExpiringInQueueIsDroppedAtDispatch) {
  TemporalGraph g = ServeGraph();
  GraphStats gstats = ComputeGraphStats(g);
  std::vector<Query> queries = MixedQueries(g, gstats.kmax);
  ThreadPool pool(2);
  LiveEngineOptions options;
  options.engine.pool = &pool;
  auto live = LiveQueryEngine::Create(g, options);
  ASSERT_TRUE(live.ok());
  QueryEngine* engine = &(*live)->snapshot()->engine();

  // Block every pool worker so the dispatcher cannot run until released;
  // the batch's deadline dies while it sits in the request queue.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  for (int w = 0; w < 2; ++w) {
    pool.Submit([gate] { gate.wait(); });
  }
  std::future<BatchResult> future =
      SubmitFuture(**live, {queries, Deadline::AfterSeconds(0.05)});
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  release.set_value();
  BatchResult result = future.get();
  for (const RunOutcome& out : result.outcomes) {
    EXPECT_EQ(out.status.code(), StatusCode::kTimeout);
  }
  EXPECT_EQ(engine->stats().deadlines_expired, 1u);
  EXPECT_EQ(engine->stats().executed, 0u);
}

/// Blocks every worker of a pool until Release() (or destruction): work
/// queued behind the gate cannot run, so a test sees exactly what Submit
/// does on the submitting thread.
class PoolWedge {
 public:
  PoolWedge(ThreadPool* pool, int workers) : gate_(release_.get_future()) {
    for (int w = 0; w < workers; ++w) {
      pool->Submit([gate = gate_] { gate.wait(); });
    }
  }
  ~PoolWedge() { Release(); }
  void Release() {
    if (released_) return;
    released_ = true;
    release_.set_value();
  }

 private:
  std::promise<void> release_;
  std::shared_future<void> gate_;
  bool released_ = false;
};

/// `n` valid, pairwise distinct k=2 queries (OK outcomes, so the engine
/// caches them), starting at the `first`-th 20-timestamp window.
std::vector<Query> WindowQueries(uint32_t first, uint32_t n) {
  std::vector<Query> queries;
  for (uint32_t i = first; i < first + n; ++i) {
    queries.push_back(Query{2, Window{1 + 7 * i, 21 + 7 * i}});
  }
  return queries;
}

std::vector<RunOutcome> SerialOutcomes(const TemporalGraph& g,
                                       const std::vector<Query>& queries) {
  std::vector<RunOutcome> outcomes;
  for (const Query& q : queries) {
    outcomes.push_back(RunAlgorithm(AlgorithmKind::kEnum, g, q));
  }
  return outcomes;
}


TEST(LiveEngineInlineTest, CachedBatchCompletesOnSubmittingThread) {
  TemporalGraph g = ServeGraph();
  std::vector<Query> queries = WindowQueries(0, 6);
  queries.push_back(queries[2]);  // a duplicate is a hit like any other
  ThreadPool pool(2);
  LiveEngineOptions options;
  options.engine.pool = &pool;
  auto live = LiveQueryEngine::Create(g, options);
  ASSERT_TRUE(live.ok());
  QueryEngine* engine = &(*live)->snapshot()->engine();
  const std::vector<RunOutcome> reference = engine->ServeBatch(queries);
  PoolWedge wedge(&pool, 2);

  const uint64_t hits_before = engine->stats().cache_hits;
  bool completed = false;
  std::thread::id ran_on;
  BatchResult result;
  (*live)->Submit({queries}, [&](BatchResult&& r) {
    completed = true;
    ran_on = std::this_thread::get_id();
    result = std::move(r);
  });
  // With every worker wedged, only the submitting thread could have run it.
  ASSERT_TRUE(completed);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  ASSERT_EQ(result.outcomes.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameResults(reference[i], result.outcomes[i], "inline");
  }
  const ServeStats stats = engine->stats();
  EXPECT_EQ(stats.cache_hits, hits_before + queries.size());
  EXPECT_EQ(stats.async_batches, 1u);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.queries_served, 2 * queries.size());
}

TEST(LiveEngineInlineTest, CachedBatchQueuedBehindMissesWaitsItsTurn) {
  TemporalGraph g = ServeGraph();
  const std::vector<Query> cached = WindowQueries(0, 6);
  const std::vector<Query> misses = WindowQueries(6, 6);
  ThreadPool pool(2);
  LiveEngineOptions options;
  options.engine.pool = &pool;
  auto live = LiveQueryEngine::Create(g, options);
  ASSERT_TRUE(live.ok());
  QueryEngine* engine = &(*live)->snapshot()->engine();
  engine->ServeBatch(cached);
  PoolWedge wedge(&pool, 2);

  std::future<BatchResult> miss_future = SubmitFuture(**live, {misses});
  std::future<BatchResult> hit_future = SubmitFuture(**live, {cached});
  // The miss batch is in flight, so the cached batch queues behind it
  // instead of overtaking: dispatch stays FIFO under load.
  EXPECT_EQ(hit_future.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  EXPECT_EQ(miss_future.wait_for(std::chrono::milliseconds(0)),
            std::future_status::timeout);
  wedge.Release();

  const std::vector<RunOutcome> miss_reference = SerialOutcomes(g, misses);
  const std::vector<RunOutcome> hit_reference = SerialOutcomes(g, cached);
  BatchResult miss_result = miss_future.get();
  BatchResult hit_result = hit_future.get();
  ASSERT_EQ(miss_result.outcomes.size(), misses.size());
  ASSERT_EQ(hit_result.outcomes.size(), cached.size());
  for (size_t i = 0; i < misses.size(); ++i) {
    ExpectSameResults(miss_reference[i], miss_result.outcomes[i], "misses");
    ExpectSameResults(hit_reference[i], hit_result.outcomes[i], "cached");
  }
}

TEST(LiveEngineInlineTest, HalfCachedBatchLooksEachQueryUpOnce) {
  TemporalGraph g = ServeGraph();
  const std::vector<Query> cached = WindowQueries(0, 4);
  const std::vector<Query> misses = WindowQueries(4, 4);
  std::vector<Query> batch;
  for (size_t i = 0; i < cached.size(); ++i) {
    batch.push_back(cached[i]);
    batch.push_back(misses[i]);
  }
  ThreadPool pool(2);
  LiveEngineOptions options;
  options.engine.pool = &pool;
  auto live = LiveQueryEngine::Create(g, options);
  ASSERT_TRUE(live.ok());
  QueryEngine* engine = &(*live)->snapshot()->engine();
  engine->ServeBatch(cached);
  PoolWedge wedge(&pool, 2);

  auto lookups = [engine] {
    const ServeStats stats = engine->stats();
    return stats.cache_hits + stats.cache_misses;
  };
  const uint64_t before = lookups();
  const uint64_t executed_before = engine->stats().executed;
  std::future<BatchResult> future = SubmitFuture(**live, {batch});
  // Scanned on the submitting thread: every lookup is already done...
  EXPECT_EQ(lookups(), before + batch.size());
  wedge.Release();
  BatchResult result = future.get();
  // ...and dispatch reuses the scan instead of looking up again.
  EXPECT_EQ(lookups(), before + batch.size());
  const std::vector<RunOutcome> reference = SerialOutcomes(g, batch);
  ASSERT_EQ(result.outcomes.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ExpectSameResults(reference[i], result.outcomes[i], "half cached");
  }
  EXPECT_EQ(engine->stats().executed, executed_before + misses.size());
}

TEST(LiveEngineShedTest, FullQueueShedsLeastRemainingDeadline) {
  TemporalGraph g = ServeGraph();
  GraphStats gstats = ComputeGraphStats(g);
  std::vector<Query> queries = MixedQueries(g, gstats.kmax);
  ThreadPool pool(2);
  LiveEngineOptions options;
  options.engine.pool = &pool;
  options.async_queue_capacity = 1;  // one queued batch, then the contest
  auto live = LiveQueryEngine::Create(g, options);
  ASSERT_TRUE(live.ok());
  QueryEngine* engine = &(*live)->snapshot()->engine();
  std::vector<RunOutcome> reference = engine->ServeBatch(queries);
  engine->ClearCache();

  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  for (int w = 0; w < 2; ++w) {
    pool.Submit([gate] { gate.wait(); });
  }
  // A fills the queue; B (more remaining deadline) evicts it; C (least
  // remaining of all) loses its own contest and is rejected. Throughout,
  // no submission blocks — the pool is wedged until `release`.
  std::future<BatchResult> a =
      SubmitFuture(**live, {queries, Deadline::AfterSeconds(5.0)});
  std::future<BatchResult> b =
      SubmitFuture(**live, {queries, Deadline::AfterSeconds(50.0)});
  std::future<BatchResult> c =
      SubmitFuture(**live, {queries, Deadline::AfterSeconds(0.5)});
  // A and C settle without the pool running at all.
  BatchResult shed_a = a.get();
  BatchResult shed_c = c.get();
  for (const RunOutcome& out : shed_a.outcomes) {
    EXPECT_EQ(out.status.code(), StatusCode::kResourceExhausted);
  }
  for (const RunOutcome& out : shed_c.outcomes) {
    EXPECT_EQ(out.status.code(), StatusCode::kResourceExhausted);
  }
  release.set_value();
  BatchResult served = b.get();
  ASSERT_EQ(served.outcomes.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameResults(reference[i], served.outcomes[i], "survivor");
  }
  ServeStats stats = engine->stats();
  EXPECT_EQ(stats.batches_shed, 2u);
  EXPECT_EQ(stats.async_batches, 3u);
}

TEST(LiveEngineShedTest, UnlimitedDeadlineBatchIsNeverEvicted) {
  TemporalGraph g = ServeGraph();
  GraphStats gstats = ComputeGraphStats(g);
  std::vector<Query> queries = MixedQueries(g, gstats.kmax);
  ThreadPool pool(2);
  LiveEngineOptions options;
  options.engine.pool = &pool;
  options.async_queue_capacity = 1;
  auto live = LiveQueryEngine::Create(g, options);
  ASSERT_TRUE(live.ok());
  QueryEngine* engine = &(*live)->snapshot()->engine();

  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  for (int w = 0; w < 2; ++w) {
    pool.Submit([gate] { gate.wait(); });
  }
  std::future<BatchResult> unlimited = SubmitFuture(**live, {queries});
  std::future<BatchResult> finite =
      SubmitFuture(**live, {queries, Deadline::AfterSeconds(50.0)});
  BatchResult shed = finite.get();  // the finite batch loses to unlimited
  for (const RunOutcome& out : shed.outcomes) {
    EXPECT_EQ(out.status.code(), StatusCode::kResourceExhausted);
  }
  release.set_value();
  BatchResult served = unlimited.get();
  EXPECT_EQ(served.outcomes.size(), queries.size());
  EXPECT_EQ(engine->stats().batches_shed, 1u);
}

// One update that keeps the timeline: a new edge at an existing timestamp.
std::vector<RawTemporalEdge> OneEdgeUpdate(const TemporalGraph& g) {
  return {RawTemporalEdge{1, 2, g.RawTimestamp(4)}};
}

TEST(LiveEngineShedTest, QueueBoundHoldsAcrossASwap) {
  TemporalGraph g = ServeGraph();
  const std::vector<Query> first = WindowQueries(0, 4);
  ThreadPool pool(2);
  LiveEngineOptions options;
  options.engine.pool = &pool;
  options.async_queue_capacity = 1;
  auto live = LiveQueryEngine::Create(g, options);
  ASSERT_TRUE(live.ok());
  PoolWedge wedge(&pool, 2);

  // An unlimited miss batch pinned to v0 takes the queue's one slot; the
  // updater builds v1 on its own pool while the serving pool is wedged.
  std::future<BatchResult> queued = SubmitFuture(**live, {first});
  ASSERT_TRUE((*live)->ApplyUpdates(OneEdgeUpdate(g)).get().ok());
  ASSERT_EQ((*live)->version(), 1u);

  // The swap did not open a fresh queue: a finite-deadline batch pinned to
  // v1 meets the full one, loses the contest to the unlimited batch, and
  // settles at once.
  std::future<BatchResult> late = SubmitFuture(
      **live, {WindowQueries(4, 4), Deadline::AfterSeconds(50.0)});
  ASSERT_EQ(late.wait_for(std::chrono::milliseconds(0)),
            std::future_status::ready);
  BatchResult shed = late.get();
  EXPECT_EQ(shed.snapshot_version, 1u);
  for (const RunOutcome& out : shed.outcomes) {
    EXPECT_EQ(out.status.code(), StatusCode::kResourceExhausted);
  }
  EXPECT_EQ((*live)->snapshot()->engine().stats().batches_shed, 1u);

  wedge.Release();
  BatchResult served = queued.get();
  EXPECT_EQ(served.snapshot_version, 0u);
  const std::vector<RunOutcome> reference = SerialOutcomes(g, first);
  ASSERT_EQ(served.outcomes.size(), first.size());
  for (size_t i = 0; i < first.size(); ++i) {
    ExpectSameResults(reference[i], served.outcomes[i], "pinned to v0");
  }
}

TEST(LiveEngineAsyncTest, BatchHoldingTheLastPinDestroysItsSnapshot) {
  TemporalGraph g = ServeGraph();
  const std::vector<Query> queries = WindowQueries(0, 4);
  ThreadPool pool(2);
  LiveEngineOptions options;
  options.engine.pool = &pool;
  auto live = LiveQueryEngine::Create(g, options);
  ASSERT_TRUE(live.ok());
  std::weak_ptr<const GraphSnapshot> v0 = (*live)->snapshot();
  PoolWedge wedge(&pool, 2);

  std::promise<std::thread::id> completed_on;
  uint64_t version = 99;
  (*live)->Submit({queries}, [&](BatchResult&& result) {
    version = result.snapshot_version;
    completed_on.set_value(std::this_thread::get_id());
  });
  ASSERT_TRUE((*live)->ApplyUpdates(OneEdgeUpdate(g)).get().ok());
  // Swapped out: the queued miss batch is v0's last owner.
  EXPECT_EQ(v0.use_count(), 1);

  wedge.Release();
  // The batch settles on a pool worker and drops v0 there, before it
  // counts as settled; nothing waits on the task that destroys v0, so
  // Shutdown's drain returns.
  (*live)->Shutdown();
  EXPECT_TRUE(v0.expired());
  EXPECT_NE(completed_on.get_future().get(), std::this_thread::get_id());
  EXPECT_EQ(version, 0u);
}

}  // namespace
}  // namespace tkc
