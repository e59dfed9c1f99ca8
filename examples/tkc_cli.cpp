// tkc_cli — command-line front end for time-range temporal k-core queries
// on SNAP-format files or the built-in synthetic datasets. The paper's
// algorithm (--algo=enum, the default) is served through the QueryEngine
// (serve/query_engine.h): queries are batched, sharded over a thread pool,
// admission-checked against the PHC index, and memoized in the engine's
// LRU — the same path a long-lived server would use. The baselines
// (--algo=enumbase|otcd|naive) bypass the engine: each query runs
// RunAlgorithm directly, fanned over the same pool, in local batch mode
// only.
//
//   tkc_cli --dataset=CM --k-frac=0.3 --range-frac=0.1 --algo=enum
//   tkc_cli --file=CollegeMsg.txt --k=5 --ts=1 --te=5000 --algo=otcd
//   tkc_cli --dataset=SU --queries=32 --repeat=3 --threads=8
//
// Flags:
//   --file=PATH | --dataset=NAME[,scale via --scale]   input graph
//   --k=N | --k-frac=F          absolute k, or fraction of kmax (default .3)
//   --ts=A --te=B               compacted time range (default: derived)
//   --range-frac=F              range as a fraction of tmax (default 0.1)
//   --algo=enum|enumbase|otcd|naive                    (default enum;
//                               the baselines run in local batch mode only,
//                               not with --serve or --updates)
//   --queries=N                 batch size (default 1; >1 draws a workload)
//   --repeat=R                  serve the batch R times  (default 1)
//   --threads=N                 engine pool size (default TKC_NUM_THREADS /
//                               hardware concurrency)
//   --cache=N                   engine LRU capacity      (default 1024)
//   --index=0|1                 build the PHC admission index (default: on
//                               for batches of >1 query, off for a single
//                               query, where the build would dwarf it)
//   --limit=S                   per-query time limit in seconds (default
//                               unlimited)
//   --print=N                   print the first N cores of the first query
//                               (default 5; runs the detailed sink path)
//   --stats                     print result-set distribution statistics
//   --updates=PATH              live-update replay mode: PATH holds edge
//                               updates, one "u v raw_time" per line; blank
//                               lines split the stream into batches ('#'
//                               comments allowed). The CLI serves through a
//                               LiveQueryEngine: the query batch is
//                               submitted asynchronously, each update batch
//                               is applied as a snapshot swap while queries
//                               are in flight, and every result reports the
//                               graph version it was pinned to.
//   --serve=PORT                network server mode: builds the graph and a
//                               LiveQueryEngine, then serves the wire
//                               protocol (net/server.h) on PORT (0 picks an
//                               ephemeral port, printed at startup) until
//                               stdin closes / Enter is pressed. Engine
//                               flags (--threads --cache --index --limit)
//                               apply as usual.
//   --connect=HOST:PORT         network client mode: connects a TkcClient,
//                               sends the query batch --repeat times, and
//                               prints per-round verdict summaries with the
//                               snapshot version each batch was pinned to.
//                               --limit=S becomes the wire deadline;
//                               --stats fetches the server's counters.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/sinks.h"
#include "core/result_stats.h"
#include "core/temporal_kcore.h"
#include "datasets/registry.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire_format.h"
#include "otcd/otcd.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "util/flags.h"
#include "util/thread_pool.h"
#include "workload/query_workload.h"

namespace {

// The --algo names, or nullopt for a name tkc_cli does not know.
std::optional<tkc::AlgorithmKind> ParseAlgo(const std::string& name) {
  if (name == "enum") return tkc::AlgorithmKind::kEnum;
  if (name == "enumbase") return tkc::AlgorithmKind::kEnumBase;
  if (name == "otcd") return tkc::AlgorithmKind::kOtcd;
  if (name == "naive") return tkc::AlgorithmKind::kNaive;
  return std::nullopt;
}

// The wire deadline for --limit=S: unlimited (0) when S <= 0, else S in
// milliseconds rounded up, so a sub-millisecond limit stays a limit (0 on
// the wire means unlimited), and clamped to the field's range.
uint32_t LimitToDeadlineMs(double limit_seconds) {
  if (!(limit_seconds > 0)) return 0;
  const double ms = std::ceil(limit_seconds * 1000.0);
  if (ms >= static_cast<double>(std::numeric_limits<uint32_t>::max())) {
    return std::numeric_limits<uint32_t>::max();
  }
  return std::max<uint32_t>(1, static_cast<uint32_t>(ms));
}

// Parses an update stream: "u v raw_time" lines, '#' comments, blank lines
// separate batches. Returns false (with a message) on malformed input.
bool LoadUpdateBatches(
    const std::string& path,
    std::vector<std::vector<tkc::RawTemporalEdge>>* batches) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "updates: cannot open '%s'\n", path.c_str());
    return false;
  }
  std::vector<tkc::RawTemporalEdge> batch;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) {  // blank: batch boundary
      if (!batch.empty()) batches->push_back(std::move(batch));
      batch.clear();
      continue;
    }
    if (line[first] == '#') continue;
    // Parse signed and range-check: istream>> into an unsigned type would
    // silently wrap "-1" to ~4.3 billion (and a 4.3B-vertex id makes the
    // graph builder allocate per-vertex arrays that large).
    std::istringstream fields(line);
    long long u, v, raw_time;
    std::string trailing;
    if (!(fields >> u >> v >> raw_time) || (fields >> trailing) || u < 0 ||
        v < 0 || raw_time < 0 ||
        u >= std::numeric_limits<tkc::VertexId>::max() ||  // max = sentinel
        v >= std::numeric_limits<tkc::VertexId>::max()) {
      std::fprintf(stderr, "updates: malformed line %zu: '%s'\n", line_no,
                   line.c_str());
      return false;
    }
    batch.push_back(tkc::RawTemporalEdge{static_cast<tkc::VertexId>(u),
                                         static_cast<tkc::VertexId>(v),
                                         static_cast<uint64_t>(raw_time)});
  }
  if (!batch.empty()) batches->push_back(std::move(batch));
  return true;
}

// The --updates replay: async query batches interleaved with snapshot
// swaps. Returns the process exit code.
int RunLiveReplay(tkc::TemporalGraph graph,
                  const std::vector<tkc::Query>& queries,
                  const std::vector<std::vector<tkc::RawTemporalEdge>>& events,
                  const tkc::QueryEngineOptions& engine_options, int repeat) {
  using namespace tkc;
  LiveEngineOptions options;
  options.engine = engine_options;
  auto live = LiveQueryEngine::Create(std::move(graph), options);
  if (!live.ok()) {
    std::fprintf(stderr, "live engine: %s\n", live.status().ToString().c_str());
    return 1;
  }

  // One async round before any update, then one per update event, times
  // --repeat: submissions are never awaited before the next swap is
  // queued, so batches genuinely overlap rebuilds.
  std::vector<std::future<BatchResult>> rounds;
  std::vector<std::future<Status>> swaps;
  for (int r = 0; r < repeat; ++r) {
    rounds.push_back(SubmitFuture(**live, {queries}));
    for (const auto& event : events) {
      swaps.push_back((*live)->ApplyUpdates(event));
      rounds.push_back(SubmitFuture(**live, {queries}));
    }
  }

  int failures = 0;
  for (size_t i = 0; i < swaps.size(); ++i) {
    Status status = swaps[i].get();
    if (!status.ok()) {
      std::fprintf(stderr, "update %zu: %s\n", i, status.ToString().c_str());
      ++failures;
    }
  }
  for (size_t i = 0; i < rounds.size(); ++i) {
    BatchResult result = rounds[i].get();
    uint64_t cores = 0, edges = 0;
    for (const RunOutcome& out : result.outcomes) {
      if (!out.status.ok()) {
        std::fprintf(stderr, "round %zu: %s\n", i,
                     out.status.ToString().c_str());
        ++failures;
        continue;
      }
      cores += out.num_cores;
      edges += out.result_size_edges;
    }
    std::printf(
        "round %2zu: graph v%llu, %zu queries -> %llu cores, |R|=%llu\n", i,
        static_cast<unsigned long long>(result.snapshot_version),
        result.outcomes.size(), static_cast<unsigned long long>(cores),
        static_cast<unsigned long long>(edges));
  }
  LiveStats stats = (*live)->stats();
  const TemporalGraph& final_graph = (*live)->snapshot()->graph();
  std::printf(
      "live: %llu swaps, %llu edges applied, %llu failed batches, last "
      "rebuild %.4fs, last swap %.6fs; final graph: %u vertices, %u edges, "
      "%u timestamps\n",
      static_cast<unsigned long long>(stats.swaps),
      static_cast<unsigned long long>(stats.edges_applied),
      static_cast<unsigned long long>(stats.failed_updates),
      stats.last_rebuild_seconds, stats.last_swap_seconds,
      final_graph.num_vertices(), final_graph.num_edges(),
      final_graph.num_timestamps());
  const UpdateStats& update = stats.update;
  std::printf(
      "updater: %llu/%llu batches applied (%llu coalesced), %llu slices "
      "reused / %llu suffix-maintained / %llu rebuilt (%llu incremental "
      "swaps), %llu/%llu rows carried, %llu cache entries carried\n",
      static_cast<unsigned long long>(update.batches_applied),
      static_cast<unsigned long long>(update.batches_submitted),
      static_cast<unsigned long long>(update.batches_coalesced),
      static_cast<unsigned long long>(update.slices_reused),
      static_cast<unsigned long long>(update.suffix_rebuilds),
      static_cast<unsigned long long>(update.slices_rebuilt),
      static_cast<unsigned long long>(update.incremental_swaps),
      static_cast<unsigned long long>(update.rows_reused),
      static_cast<unsigned long long>(update.rows_total),
      static_cast<unsigned long long>(update.cache_entries_carried));
  return failures == 0 ? 0 : 1;
}

// The --serve mode: a TkcServer over a LiveQueryEngine on `port`, running
// until stdin closes (Enter, ^D, or the parent dropping the pipe). Returns
// the process exit code.
int RunServe(tkc::TemporalGraph graph,
             const tkc::QueryEngineOptions& engine_options, int port) {
  using namespace tkc;
  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "serve: port %d out of range\n", port);
    return 2;
  }
  LiveEngineOptions options;
  options.engine = engine_options;
  auto live = LiveQueryEngine::Create(std::move(graph), options);
  if (!live.ok()) {
    std::fprintf(stderr, "live engine: %s\n",
                 live.status().ToString().c_str());
    return 1;
  }
  net::ServerOptions server_options;
  server_options.host = "127.0.0.1";
  server_options.port = static_cast<uint16_t>(port);
  auto server = net::TkcServer::Start(live->get(), server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "server: %s\n", server.status().ToString().c_str());
    return 1;
  }
  std::printf("serving on %s:%u — press Enter to stop\n",
              server_options.host.c_str(), (*server)->port());
  std::fflush(stdout);
  (void)std::getchar();  // EOF works too: serve-until-killed under a pipe
  (*server)->Stop();
  const net::ServerStats stats = (*server)->stats();
  std::printf(
      "server: %llu connections (%llu closed, %llu dropped), %llu requests, "
      "%llu batches (%llu shed, %llu expired), %llu responses streamed, "
      "%llu dropped, %llu KiB out\n",
      static_cast<unsigned long long>(stats.connections_accepted),
      static_cast<unsigned long long>(stats.connections_closed),
      static_cast<unsigned long long>(stats.connections_dropped),
      static_cast<unsigned long long>(stats.requests_received),
      static_cast<unsigned long long>(stats.batches_submitted),
      static_cast<unsigned long long>(stats.batches_shed),
      static_cast<unsigned long long>(stats.deadlines_expired),
      static_cast<unsigned long long>(stats.responses_streamed),
      static_cast<unsigned long long>(stats.responses_dropped),
      static_cast<unsigned long long>(stats.bytes_written / 1024));
  return 0;
}

// The --connect mode: the generated query batch goes over the wire instead
// of into a local engine. Returns the process exit code.
int RunConnect(const std::string& target,
               const std::vector<tkc::Query>& queries, int repeat,
               double limit_seconds, bool want_stats) {
  using namespace tkc;
  const size_t colon = target.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= target.size()) {
    std::fprintf(stderr, "connect: expected HOST:PORT, got '%s'\n",
                 target.c_str());
    return 2;
  }
  const std::string host = target.substr(0, colon);
  const int port = std::atoi(target.c_str() + colon + 1);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "connect: bad port in '%s'\n", target.c_str());
    return 2;
  }
  auto client = net::TkcClient::Connect(host, static_cast<uint16_t>(port));
  if (!client.ok()) {
    std::fprintf(stderr, "connect: %s\n", client.status().ToString().c_str());
    return 1;
  }
  const uint32_t deadline_ms = LimitToDeadlineMs(limit_seconds);

  int failures = 0;
  WallTimer timer;
  for (int r = 0; r < repeat; ++r) {
    auto response = (*client)->Query(queries, deadline_ms);
    if (!response.ok()) {
      std::fprintf(stderr, "round %d: %s\n", r,
                   response.status().ToString().c_str());
      return 1;
    }
    uint64_t cores = 0, edges = 0;
    for (const net::VerdictFrame& verdict : response->verdicts) {
      const StatusCode code = net::StatusCodeFromWire(verdict.status_code);
      if (code != StatusCode::kOk) {
        std::fprintf(stderr, "round %d query %u: %s\n", r,
                     verdict.query_index,
                     Status(code, "wire verdict").ToString().c_str());
        ++failures;
        continue;
      }
      cores += verdict.num_cores;
      edges += verdict.result_size_edges;
    }
    std::printf(
        "round %2d: graph v%llu, %zu queries -> %llu cores, |R|=%llu\n", r,
        static_cast<unsigned long long>(response->snapshot_version),
        response->verdicts.size(), static_cast<unsigned long long>(cores),
        static_cast<unsigned long long>(edges));
  }
  const double seconds = timer.ElapsedSeconds();
  std::printf("%d round(s) in %.4fs (%.1f q/s over the wire)\n", repeat,
              seconds,
              seconds > 0 ? static_cast<double>(repeat) *
                                static_cast<double>(queries.size()) / seconds
                          : 0.0);
  if (want_stats) {
    auto stats = (*client)->FetchStats();
    if (!stats.ok()) {
      std::fprintf(stderr, "stats: %s\n", stats.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "server: %llu connections, %llu requests, %llu batches (%llu shed, "
        "%llu expired), %llu responses streamed, %llu dropped\n",
        static_cast<unsigned long long>(stats->connections_accepted),
        static_cast<unsigned long long>(stats->requests_received),
        static_cast<unsigned long long>(stats->batches_submitted),
        static_cast<unsigned long long>(stats->batches_shed),
        static_cast<unsigned long long>(stats->deadlines_expired),
        static_cast<unsigned long long>(stats->responses_streamed),
        static_cast<unsigned long long>(stats->responses_dropped));
  }
  (*client)->Close();
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tkc;
  auto flags_or = Flags::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "%s\n", flags_or.status().ToString().c_str());
    return 2;
  }
  const Flags& flags = *flags_or;

  // An unknown --algo is a flag error, caught before the graph is built.
  const std::string algo = flags.GetString("algo", "enum");
  const std::optional<AlgorithmKind> parsed_kind = ParseAlgo(algo);
  if (!parsed_kind.has_value()) {
    std::fprintf(stderr,
                 "--algo=%s: unknown algorithm; expected one of enum, "
                 "enumbase, otcd, naive\n",
                 algo.c_str());
    return 2;
  }
  const AlgorithmKind kind = *parsed_kind;

  // --- Input graph. -----------------------------------------------------
  TemporalGraph graph;
  if (flags.Has("file")) {
    auto loaded = LoadSnapFile(flags.GetString("file", ""));
    if (!loaded.ok()) {
      std::fprintf(stderr, "load: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    graph = std::move(loaded).value();
  } else {
    std::string name = flags.GetString("dataset", "CM");
    auto generated = GenerateByName(name, flags.GetDouble("scale", 1.0));
    if (!generated.ok()) {
      std::fprintf(stderr, "dataset: %s\n",
                   generated.status().ToString().c_str());
      return 1;
    }
    graph = std::move(generated).value();
    std::printf("generated synthetic dataset '%s'\n", name.c_str());
  }
  GraphStats stats = ComputeGraphStats(graph);
  std::printf("%s\n", FormatGraphStats("graph", stats).c_str());

  // --- Query batch. ------------------------------------------------------
  // Clamp user-supplied counts before the unsigned casts: a negative value
  // would otherwise wrap to ~4e9 queries or an unallocatable cache.
  const uint32_t num_queries = static_cast<uint32_t>(
      std::clamp<int64_t>(flags.GetInt("queries", 1), 1, 1000000));
  std::vector<Query> queries;
  if (flags.Has("ts") && flags.Has("te")) {
    uint32_t k = static_cast<uint32_t>(flags.GetInt("k", 0));
    if (k == 0) k = DeriveK(stats.kmax, flags.GetDouble("k-frac", 0.30));
    queries.push_back(
        Query{k, Window{static_cast<Timestamp>(flags.GetInt("ts", 1)),
                        static_cast<Timestamp>(flags.GetInt("te", 1))}});
  } else {
    WorkloadSpec spec;
    uint32_t k = static_cast<uint32_t>(flags.GetInt("k", 0));
    spec.k_fraction = k != 0
                          ? static_cast<double>(k) /
                                std::max<uint32_t>(stats.kmax, 1)
                          : flags.GetDouble("k-frac", 0.30);
    spec.range_fraction = flags.GetDouble("range-frac", 0.10);
    spec.num_queries = std::max<uint32_t>(1, num_queries);
    auto generated = GenerateQueries(graph, stats.kmax, spec);
    if (!generated.ok()) {
      std::fprintf(stderr, "no valid query range: %s\n",
                   generated.status().ToString().c_str());
      return 1;
    }
    queries = std::move(generated).value();
  }
  std::printf("batch: %zu query(ies), first k=%u range=[%u,%u]\n",
              queries.size(), queries[0].k, queries[0].range.start,
              queries[0].range.end);

  // --- Serving engine. ----------------------------------------------------
  const int threads = static_cast<int>(
      std::clamp<int64_t>(flags.GetInt("threads", DefaultNumThreads()), 1,
                          1024));
  ThreadPool pool(threads);
  QueryEngineOptions options;
  options.pool = &pool;
  options.cache_capacity = static_cast<size_t>(
      std::clamp<int64_t>(flags.GetInt("cache", 1024), 0, 1 << 24));
  // The full multi-k admission index is a server-grade precompute — worth
  // it for batches, dwarfing the work of a single query. Default: batches
  // only; --index=0/1 overrides either way.
  options.build_index = flags.GetBool("index", queries.size() > 1);
  options.per_query_limit_seconds = flags.GetDouble("limit", 0);

  const int repeat = std::max<int>(1, flags.GetInt("repeat", 1));
  if (kind != AlgorithmKind::kEnum &&
      (flags.Has("serve") || flags.Has("updates"))) {
    std::fprintf(stderr,
                 "--algo=%s runs in local batch mode only; --serve and "
                 "--updates serve the paper's algorithm (--algo=enum)\n",
                 algo.c_str());
    return 2;
  }
  if (flags.Has("serve")) {
    return RunServe(std::move(graph), options,
                    static_cast<int>(flags.GetInt("serve", 0)));
  }
  if (flags.Has("connect")) {
    // The graph built above only seeded the workload; the server answers
    // from its own copy (start both sides with the same dataset flags).
    return RunConnect(flags.GetString("connect", ""), queries, repeat,
                      flags.GetDouble("limit", 0),
                      flags.GetBool("stats", false));
  }
  if (flags.Has("updates")) {
    std::vector<std::vector<RawTemporalEdge>> events;
    if (!LoadUpdateBatches(flags.GetString("updates", ""), &events)) return 2;
    std::printf("replaying %zu update batch(es) against the live engine\n",
                events.size());
    return RunLiveReplay(std::move(graph), queries, events, options, repeat);
  }

  WallTimer timer;
  std::vector<RunOutcome> outcomes;
  uint64_t queries_served = 0;
  std::optional<QueryEngine> engine;
  if (kind == AlgorithmKind::kEnum) {
    auto created = QueryEngine::Create(graph, options);
    if (!created.ok()) {
      std::fprintf(stderr, "engine: %s\n",
                   created.status().ToString().c_str());
      return 1;
    }
    engine.emplace(std::move(created).value());
    timer.Restart();
    for (int r = 0; r < repeat; ++r) {
      outcomes = engine->ServeBatch(queries);
    }
    queries_served = engine->stats().queries_served;
  } else {
    // A baseline runs each query on its own: no cache, admission index or
    // in-batch dedup, just RunAlgorithm fanned over the pool.
    outcomes.resize(queries.size());
    for (int r = 0; r < repeat; ++r) {
      pool.ParallelFor(queries.size(), [&](size_t i, int /*worker*/) {
        Deadline deadline;
        if (options.per_query_limit_seconds > 0) {
          deadline = Deadline::AfterSeconds(options.per_query_limit_seconds);
        }
        outcomes[i] = RunAlgorithm(kind, graph, queries[i], deadline);
      });
    }
    queries_served = static_cast<uint64_t>(repeat) * queries.size();
  }
  const double seconds = timer.ElapsedSeconds();

  uint64_t cores = 0, result_edges = 0;
  bool all_ok = true;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const RunOutcome& out = outcomes[i];
    if (!out.status.ok()) {
      std::fprintf(stderr, "query %zu: %s\n", i,
                   out.status.ToString().c_str());
      all_ok = false;
      continue;
    }
    cores += out.num_cores;
    result_edges += out.result_size_edges;
  }
  std::printf(
      "%s x%d over %d thread(s): %llu distinct temporal cores, |R|=%llu "
      "edges, %.4fs total (%.1f q/s)\n",
      algo.c_str(), repeat, pool.num_threads(),
      static_cast<unsigned long long>(cores),
      static_cast<unsigned long long>(result_edges), seconds,
      seconds > 0 ? static_cast<double>(queries_served) / seconds : 0.0);
  if (engine.has_value()) {
    const ServeStats serve_stats = engine->stats();
    std::printf(
        "engine: served=%llu executed=%llu cache_hits=%llu dedup_hits=%llu "
        "index_rejections=%llu\n",
        static_cast<unsigned long long>(serve_stats.queries_served),
        static_cast<unsigned long long>(serve_stats.executed),
        static_cast<unsigned long long>(serve_stats.cache_hits),
        static_cast<unsigned long long>(serve_stats.batch_dedup_hits),
        static_cast<unsigned long long>(serve_stats.index_rejections));
  }
  if (!all_ok) return 1;

  // --- Optional core listing (detailed sink path, first query only). ------
  // The engine counts results without materializing them, so listing cores
  // is a second, sink-driven run of query 0 (disable with --print=0). It
  // honors the same per-query --limit as the served batch.
  const int64_t print_n = flags.GetInt("print", 5);
  const bool want_stats = flags.GetBool("stats", false);
  if (print_n > 0 || want_stats) {
    Deadline print_deadline;
    const double limit_seconds = flags.GetDouble("limit", 0);
    if (limit_seconds > 0) {
      print_deadline = Deadline::AfterSeconds(limit_seconds);
    }
    const Query& q = queries[0];
    StatsSink stats_sink(q.range);
    int64_t printed = 0;
    std::printf("\nfirst %lld core(s) of query 0 (k=%u, [%u,%u]):\n",
                static_cast<long long>(print_n), q.k, q.range.start,
                q.range.end);
    CallbackSink sink([&](Window tti, std::span<const EdgeId> edges) {
      if (want_stats) stats_sink.OnCore(tti, edges);
      if (printed < print_n) {
        ++printed;
        std::printf("  core %lld: TTI [%u,%u], %zu edges\n",
                    static_cast<long long>(printed), tti.start, tti.end,
                    edges.size());
      }
    });
    Status status;
    if (kind == AlgorithmKind::kOtcd) {
      OtcdOptions otcd_options;
      otcd_options.deadline = print_deadline;
      status = RunOtcd(graph, q.k, q.range, &sink, otcd_options);
    } else {
      QueryOptions query_options;
      query_options.enum_method = kind == AlgorithmKind::kEnumBase
                                      ? EnumMethod::kEnumBase
                                  : kind == AlgorithmKind::kNaive
                                      ? EnumMethod::kNaive
                                      : EnumMethod::kEnum;
      query_options.deadline = print_deadline;
      status = RunTemporalKCoreQuery(graph, q.k, q.range, &sink,
                                     query_options);
    }
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    if (want_stats) {
      std::printf("\n%s", stats_sink.Report().c_str());
    }
  }
  return 0;
}
