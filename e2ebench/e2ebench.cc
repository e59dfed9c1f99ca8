// End-to-end serving benchmark over the TKC1 wire.
//
// Stands up what `tkc_cli --serve` stands up — a LiveQueryEngine with the
// PHC admission index and the default query cache, behind a TkcServer on
// loopback with a 2-thread serving pool — and drives one named workload
// against it for a fixed time:
//
//   cold_miss      serve graph; 2 closed-loop connections, 8 queries per
//                  call, every query in the run distinct (far more than the
//                  cache holds): every query is a real miss, about 2/3 of
//                  them rejected by admission, the rest run CoreTime + Enum.
//   hot_repeat     serve graph; a hot set of a few hundred queries from the
//                  same mix, Zipf(1) draws of 16 per call after an untimed
//                  warm-up pass: nearly all cache hits and in-batch dups, so
//                  the time is in the wire and the serve dispatch.
//   update_stream  a smaller graph; hot_repeat's read shape on 2
//                  connections beside an open-loop writer that applies a
//                  pre-generated update stream on a fixed schedule (most
//                  batches at the last raw timestamp, about one in ten
//                  opening a new one): reads compete with rebuilds, and the
//                  cache is carried or discarded at each swap.
//
// Every verdict is checked against RunAlgorithm(kEnum) on the graph version
// named in its BatchEnd frame (references are computed after the timed
// phase). The last stdout line is one JSON object:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A traced run first repeats the untraced run (for the tracing
// overhead and the update-visibility figures), then runs again on a fresh
// stack with spans: around each wire call, and around an in-process replay
// of the same batch through the layers' public functions — wire_format's
// encoders, ServeBatch on a shadow engine fed the same traffic, and
// BuildVctAndEcs + EnumerateFromEcs for each query the shadow executed.
// Swap-chain replays (TemporalGraph::AppendEdges, PhcIndex::Build/Rebuild)
// follow the timed phase. Spans are written to --trace-out.
//
// Usage: tkc_e2ebench --workload=NAME --seed=N --seconds=S --trace=0|1
//                     [--trace-out=PATH]
// Exit status: 0 when every verdict matched; 1 on any mismatch or failed
// call (the result line is still printed); 2, without a result line, on bad
// flags, set-up errors, or too few calls to support p95.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/enum_algorithm.h"
#include "core/sinks.h"
#include "e2ebench/trace.h"
#include "e2ebench/workload.h"
#include "graph/graph_stats.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire_format.h"
#include "serve/snapshot.h"
#include "util/flags.h"
#include "util/mem.h"
#include "util/mutex.h"
#include "util/thread_pool.h"
#include "vct/phc_index.h"
#include "vct/vct_builder.h"

namespace tkc::e2e {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kConnections = 2;
constexpr int kServingThreads = 2;
// setup_s is the median of repeated set-ups: at least kMinSetupReps, and
// more until kSetupBudgetSeconds are spent (the small update graph sets up
// in ~0.1 s, where three samples would be noise), at most kMaxSetupReps.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 25;
constexpr double kSetupBudgetSeconds = 3.0;
constexpr int kOracleThreads = 4;
constexpr size_t kColdQueriesPerCall = 8;
constexpr size_t kHotQueriesPerCall = 16;
constexpr size_t kColdPoolSize = 60000;
constexpr size_t kHotSetSize = 256;
constexpr size_t kUpdateBatches = 30;
constexpr size_t kEdgesPerUpdate = 8;
constexpr double kNewTimestampProb = 0.1;
// The timed phase is cut into kWindows equal windows by call completion
// time; qps, p50 and p95 are medians over the windows, so a disturbance
// shorter than half the run does not move them.
constexpr int kWindows = 4;
constexpr size_t kSpansWritten = 100000;  // per thread, in the trace file

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- the serving stack -------------------------------------------------------

LiveEngineOptions StackOptions(ThreadPool* pool) {
  LiveEngineOptions options;
  options.engine.pool = pool;
  options.engine.build_index = true;  // tkc_cli's default for batches
  return options;
}

struct Stack {
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<LiveQueryEngine> live;
  std::unique_ptr<net::TkcServer> server;
};

// Graph generation + LiveQueryEngine::Create + TkcServer::Start: everything
// until the first query can be served. `graph` receives a copy of version 0.
Status StartStack(const SyntheticSpec& spec, Stack* stack,
                  TemporalGraph* graph) {
  stack->server.reset();
  stack->live.reset();
  stack->pool = std::make_unique<ThreadPool>(kServingThreads);
  TemporalGraph g = GenerateSynthetic(spec);
  *graph = g;
  auto live = LiveQueryEngine::Create(std::move(g),
                                      StackOptions(stack->pool.get()));
  if (!live.ok()) return live.status();
  stack->live = std::move(*live);
  auto server = net::TkcServer::Start(stack->live.get());
  if (!server.ok()) return server.status();
  stack->server = std::move(*server);
  return Status::OK();
}

// --- inputs ------------------------------------------------------------------

struct Inputs {
  WorkloadKind kind = WorkloadKind::kColdMiss;
  uint64_t seed = 0;
  uint32_t kmax = 0;
  Timestamp tmax = 0;
  /// cold_miss: the distinct query stream; otherwise the hot set.
  std::vector<Query> queries;
  UpdateStream updates;
};

Inputs MakeInputs(WorkloadKind kind, uint64_t seed, const TemporalGraph& g) {
  Inputs in;
  in.kind = kind;
  in.seed = seed;
  in.kmax = ComputeGraphStats(g).kmax;
  in.tmax = g.num_timestamps();
  const size_t n =
      kind == WorkloadKind::kColdMiss ? kColdPoolSize : kHotSetSize;
  in.queries = DistinctQueries(in.kmax, in.tmax, n, seed + 1);
  if (kind == WorkloadKind::kUpdateStream) {
    in.updates = MakeUpdateStream(g, kUpdateBatches, kEdgesPerUpdate,
                                  kNewTimestampProb, seed + 2);
  }
  return in;
}

// Hands each connection its next batch. cold_miss walks the distinct stream
// (shared cursor, so no query is ever sent twice); the other workloads draw
// Zipf(1) over the hot set from one seeded stream per connection.
class BatchSource {
 public:
  BatchSource(const Inputs& in, uint64_t stream_seed)
      : in_(in), zipf_(std::max<size_t>(1, in.queries.size()), 1.0) {
    for (int c = 0; c < kConnections; ++c) {
      rngs_.emplace_back(stream_seed + static_cast<uint64_t>(c));
    }
  }

  bool Next(int conn, std::vector<Query>* batch) {
    batch->clear();
    if (in_.kind == WorkloadKind::kColdMiss) {
      const size_t at = cursor_.fetch_add(kColdQueriesPerCall);
      if (at + kColdQueriesPerCall > in_.queries.size()) return false;
      batch->assign(in_.queries.begin() + at,
                    in_.queries.begin() + at + kColdQueriesPerCall);
      return true;
    }
    for (size_t i = 0; i < kHotQueriesPerCall; ++i) {
      batch->push_back(in_.queries[zipf_.Sample(&rngs_[conn])]);
    }
    return true;
  }

  bool exhausted() const {
    return in_.kind == WorkloadKind::kColdMiss &&
           cursor_.load() + kColdQueriesPerCall > in_.queries.size();
  }

 private:
  const Inputs& in_;
  ZipfSampler zipf_;
  std::vector<Rng> rngs_;  // rngs_[c] is touched only by connection c
  std::atomic<size_t> cursor_{0};
};

// --- traced replay -----------------------------------------------------------

struct ReplayCounters {
  uint64_t calls = 0;
  uint64_t queries = 0;
  uint64_t cache_hits = 0;
  uint64_t rejections = 0;
  uint64_t dedup_hits = 0;
  uint64_t executed = 0;  // per the shadow engine's own counters
  uint64_t replayed = 0;  // queries replayed through CoreTime + Enum
  uint64_t vct_entries = 0;
  uint64_t ecs_windows = 0;
  uint64_t cores = 0;
  uint64_t result_edges = 0;
  uint64_t request_bytes = 0;
  uint64_t response_bytes = 0;

  void Add(const ReplayCounters& o) {
    calls += o.calls;
    queries += o.queries;
    cache_hits += o.cache_hits;
    rejections += o.rejections;
    dedup_hits += o.dedup_hits;
    executed += o.executed;
    replayed += o.replayed;
    vct_entries += o.vct_entries;
    ecs_windows += o.ecs_windows;
    cores += o.cores;
    result_edges += o.result_edges;
    request_bytes += o.request_bytes;
    response_bytes += o.response_bytes;
  }
};

// A second LiveQueryEngine fed the same traffic as the one behind the
// server (same graph, options and update stream), so an in-process
// ServeBatch of a call's batch meets the same cache state the wire call
// met. Its 1-thread pool executes inline on the calling thread, under one
// lock, so the per-batch counter deltas and the replayed child spans belong
// to exactly that batch.
class Shadow {
 public:
  Status Start(const TemporalGraph& g) {
    pool_ = std::make_unique<ThreadPool>(1);
    auto live = LiveQueryEngine::Create(g, StackOptions(pool_.get()));
    if (!live.ok()) return live.status();
    live_ = std::move(*live);
    return Status::OK();
  }

  LiveQueryEngine* live() { return live_.get(); }

  void Replay(const std::vector<Query>& batch, SpanLog* log, int64_t parent,
              uint64_t call_id, ReplayCounters* counters) TKC_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    const std::shared_ptr<const GraphSnapshot> snap = live_->snapshot();
    QueryEngine& engine = snap->engine();
    const ServeStats before = engine.stats();
    std::vector<RunOutcome> outcomes;
    int64_t serve_span = -1;
    {
      ScopedSpan span(log, "serve.batch", parent, call_id);
      serve_span = span.index();
      outcomes = engine.ServeBatch(batch);
    }
    const ServeStats after = engine.stats();
    ++counters->calls;
    counters->queries += after.queries_served - before.queries_served;
    counters->cache_hits += after.cache_hits - before.cache_hits;
    counters->rejections += after.index_rejections - before.index_rejections;
    counters->dedup_hits += after.batch_dedup_hits - before.batch_dedup_hits;
    counters->executed += after.executed - before.executed;

    // Which distinct queries executed: an executed outcome carries a fresh
    // wall time, while a cache hit replays the stored outcome bit for bit
    // and an admission rejection reports 0.
    std::map<std::tuple<uint32_t, Timestamp, Timestamp>, bool> in_batch;
    for (size_t i = 0; i < batch.size(); ++i) {
      const Query& q = batch[i];
      const auto key = std::make_tuple(q.k, q.range.start, q.range.end);
      if (!in_batch.emplace(key, true).second) continue;
      const double seconds = outcomes[i].seconds;
      auto [it, fresh] = last_seconds_.try_emplace(key, seconds);
      const bool executed = seconds > 0 && (fresh || it->second != seconds);
      it->second = seconds;
      if (!executed) continue;
      ++counters->replayed;
      VctBuildResult built;
      {
        ScopedSpan span(log, "vct.coretime", serve_span, call_id);
        built = BuildVctAndEcs(snap->graph(), q.k, q.range, &arena_);
      }
      CountingSink sink;
      {
        ScopedSpan span(log, "core.enum", serve_span, call_id);
        (void)EnumerateFromEcs(built.ecs, &sink);
      }
      counters->vct_entries += built.vct.size();
      counters->ecs_windows += built.ecs.size();
      counters->cores += sink.num_cores();
      counters->result_edges += sink.result_size_edges();
    }
  }

 private:
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<LiveQueryEngine> live_;
  Mutex mu_;
  std::map<std::tuple<uint32_t, Timestamp, Timestamp>, double> last_seconds_
      TKC_GUARDED_BY(mu_);
  VctBuildArena arena_ TKC_GUARDED_BY(mu_);
};

// --- one timed phase ---------------------------------------------------------

// Graph version (from BatchEnd) plus (k, range): the unit the oracle checks.
using VersionedQuery = std::tuple<uint64_t, uint32_t, Timestamp, Timestamp>;

bool SameResult(const net::VerdictFrame& a, const net::VerdictFrame& b) {
  return a.status_code == b.status_code && a.num_cores == b.num_cores &&
         a.result_size_edges == b.result_size_edges &&
         a.vct_size == b.vct_size && a.ecs_size == b.ecs_size;
}

// Every verdict of one (version, query) must agree, so the reader keeps the
// first verdict of each and counts the later ones that differ from it; the
// oracle then checks one verdict per distinct (version, query). Storing
// every verdict would make the benchmark's own memory dominate peak RSS.
struct Observed {
  net::VerdictFrame first;
  uint64_t count = 0;
  uint64_t disagreeing = 0;
};

struct PhaseWindow {
  LatencyHistogram latency;  // per call, ms
  uint64_t queries_ok = 0;   // verdicts with status OK
};

struct ConnLog {
  std::map<VersionedQuery, Observed> observed;
  uint64_t queries_sent = 0;
  uint64_t queries_lost = 0;  // in calls that failed as a whole
  std::vector<PhaseWindow> windows = std::vector<PhaseWindow>(kWindows);
  Clock::time_point last_done{};
  SpanLog spans;
  ReplayCounters replay;
};

struct WriterLog {
  LatencyHistogram late;     // ms
  LatencyHistogram visible;  // ms
  uint64_t failed = 0;
  double rebuild_s_total = 0;
};

void RunReader(int conn, net::TkcClient* client, BatchSource* source,
               Clock::time_point start, Clock::time_point end, Shadow* shadow,
               ConnLog* log) {
  const auto window_len = (end - start) / kWindows;
  std::vector<Query> batch;
  uint64_t call = 0;
  while (Clock::now() < end && source->Next(conn, &batch)) {
    const uint64_t call_id = (static_cast<uint64_t>(conn) << 32) | call++;
    StatusOr<net::ClientResponse> response = Status::Internal("not sent");
    // A traced call's latency is its wire round trip alone.
    double wire_ms = 0;
    if (shadow == nullptr) {
      const Clock::time_point t0 = Clock::now();
      response = client->Query(batch);
      wire_ms = MsBetween(t0, Clock::now());
    } else {
      ScopedSpan root(&log->spans, "call", -1, call_id);
      int64_t wire = -1;
      {
        ScopedSpan span(&log->spans, "net.wire", root.index(), call_id);
        wire = span.index();
        const Clock::time_point t0 = Clock::now();
        response = client->Query(batch);
        wire_ms = MsBetween(t0, Clock::now());
      }
      if (response.ok()) {
        ScopedSpan span(&log->spans, "net.encode", root.index(), call_id);
        std::string request_bytes;
        std::string response_bytes;
        net::QueryRequestFrame request;
        request.request_id = response->request_id;
        request.queries = batch;
        net::AppendQueryRequest(request, &request_bytes);
        for (const net::VerdictFrame& v : response->verdicts) {
          net::AppendVerdict(v, &response_bytes);
        }
        net::BatchEndFrame end_frame;
        end_frame.request_id = response->request_id;
        end_frame.snapshot_version = response->snapshot_version;
        end_frame.num_queries = static_cast<uint32_t>(batch.size());
        net::AppendBatchEnd(end_frame, &response_bytes);
        log->replay.request_bytes += request_bytes.size();
        log->replay.response_bytes += response_bytes.size();
      }
      shadow->Replay(batch, &log->spans, wire, call_id, &log->replay);
    }
    log->last_done = Clock::now();
    PhaseWindow& window = log->windows[std::min<size_t>(
        kWindows - 1, (log->last_done - start) / window_len)];
    window.latency.Add(wire_ms);
    log->queries_sent += batch.size();
    if (!response.ok() || response->verdicts.size() != batch.size()) {
      log->queries_lost += batch.size();
      continue;
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      const net::VerdictFrame& v = response->verdicts[i];
      if (net::StatusCodeFromWire(v.status_code) == StatusCode::kOk) {
        ++window.queries_ok;
      }
      Observed& o = log->observed[VersionedQuery{
          response->snapshot_version, batch[i].k, batch[i].range.start,
          batch[i].range.end}];
      if (o.count++ == 0) {
        o.first = v;
      } else if (!SameResult(o.first, v)) {
        ++o.disagreeing;
      }
    }
  }
}

// Open loop: batch i is due at start + i * interval whatever the engine is
// doing. Lateness is the send time minus the due time; visibility runs from
// the due time until the batch's ApplyUpdates future resolves, so a stalled
// writer shows as lateness, not as slow visibility.
void RunWriter(LiveQueryEngine* live, LiveQueryEngine* shadow,
               const UpdateStream& stream, Clock::time_point start,
               double interval_s, WriterLog* log) {
  const size_t n = stream.batches.size();
  auto due = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(interval_s *
                                                     static_cast<double>(i)));
  };
  std::deque<std::pair<size_t, std::future<Status>>> pending;
  std::vector<std::future<Status>> shadow_pending;
  uint64_t swaps_seen = 0;
  size_t next = 0;
  while (next < n || !pending.empty()) {
    if (next < n && Clock::now() >= due(next)) {
      log->late.Add(MsBetween(due(next), Clock::now()));
      pending.emplace_back(next, live->ApplyUpdates(stream.batches[next]));
      if (shadow != nullptr) {
        shadow_pending.push_back(shadow->ApplyUpdates(stream.batches[next]));
      }
      ++next;
      continue;
    }
    if (pending.empty()) {
      std::this_thread::sleep_until(due(next));
      continue;
    }
    std::future<Status>& front = pending.front().second;
    if (next < n &&
        front.wait_until(due(next)) != std::future_status::ready) {
      continue;
    }
    const Status status = front.get();
    log->visible.Add(MsBetween(due(pending.front().first), Clock::now()));
    if (!status.ok()) ++log->failed;
    pending.pop_front();
    const LiveStats stats = live->stats();
    if (stats.swaps > swaps_seen) {
      log->rebuild_s_total += stats.last_rebuild_seconds;
      swaps_seen = stats.swaps;
    }
  }
  for (std::future<Status>& f : shadow_pending) {
    if (!f.get().ok()) ++log->failed;
  }
}

struct PhaseResult {
  double elapsed_s = 0;
  std::vector<std::unique_ptr<ConnLog>> conns;
  WriterLog writer;
  net::ServerStats server;
  LiveStats live;
  uint64_t index_entries = 0;
  double peak_rss_mb = 0;
  bool exhausted = false;
};

Status RunPhase(const Inputs& in, Stack* stack, const TemporalGraph& g,
                double seconds, bool traced, PhaseResult* out) {
  std::vector<std::unique_ptr<net::TkcClient>> clients;
  for (int c = 0; c < kConnections; ++c) {
    auto client = net::TkcClient::Connect("127.0.0.1", stack->server->port());
    if (!client.ok()) return client.status();
    clients.push_back(std::move(*client));
    out->conns.push_back(std::make_unique<ConnLog>());
  }
  std::unique_ptr<Shadow> shadow;
  if (traced) {
    shadow = std::make_unique<Shadow>();
    const Status started = shadow->Start(g);
    if (!started.ok()) return started;
  }

  // Untimed warm-up: every hot query once, on both the served engine (over
  // the wire) and the shadow.
  if (in.kind != WorkloadKind::kColdMiss) {
    ReplayCounters discard;
    SpanLog discard_spans;
    for (size_t at = 0; at < in.queries.size(); at += kHotQueriesPerCall) {
      const size_t end = std::min(in.queries.size(), at + kHotQueriesPerCall);
      const std::vector<Query> batch(in.queries.begin() + at,
                                     in.queries.begin() + end);
      auto response = clients[0]->Query(batch);
      if (!response.ok()) return response.status();
      if (shadow) shadow->Replay(batch, &discard_spans, -1, 0, &discard);
    }
  }

  BatchSource source(in, in.seed + 3);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back(RunReader, c, clients[c].get(), &source, start, end,
                         shadow.get(), out->conns[c].get());
  }
  if (in.kind == WorkloadKind::kUpdateStream) {
    const double interval =
        seconds / static_cast<double>(in.updates.batches.size());
    threads.emplace_back(RunWriter, stack->live.get(),
                         shadow ? shadow->live() : nullptr,
                         std::cref(in.updates), start, interval,
                         &out->writer);
  }
  for (std::thread& t : threads) t.join();
  Clock::time_point last = start;
  for (const auto& conn : out->conns) last = std::max(last, conn->last_done);
  out->elapsed_s = std::chrono::duration<double>(last - start).count();
  out->exhausted = source.exhausted();
  out->peak_rss_mb = static_cast<double>(ReadVmHWMBytes()) / (1 << 20);

  auto stats = clients[0]->FetchStats();
  if (!stats.ok()) return stats.status();
  out->server = *stats;
  for (auto& client : clients) {
    client->FinishWrites();
    client->Close();
  }
  out->live = stack->live->stats();
  const PhcIndex* index = stack->live->snapshot()->engine().index();
  out->index_entries = index != nullptr ? index->size() : 0;
  return Status::OK();
}

// --- oracle ------------------------------------------------------------------

struct OracleResult {
  uint64_t queries = 0;
  uint64_t failed = 0;      // not OK, or not equal to the reference
  uint64_t distinct = 0;    // distinct (k, range) sent
  uint64_t empty_distinct = 0;
};

bool Matches(const net::VerdictFrame& v, const RunOutcome& ref) {
  return net::StatusCodeFromWire(v.status_code) == ref.status.code() &&
         v.num_cores == ref.num_cores &&
         v.result_size_edges == ref.result_size_edges &&
         v.vct_size == ref.vct_size && v.ecs_size == ref.ecs_size;
}

// `graphs[v]` is graph version v (the initial graph plus update batches
// 1..v). References are RunAlgorithm(kEnum) on the version each call's
// BatchEnd named, computed once per distinct (version, k, range).
OracleResult CheckVerdicts(const PhaseResult& phase,
                           const std::vector<TemporalGraph>& graphs) {
  OracleResult out;
  std::map<VersionedQuery, Observed> observed;
  for (const auto& conn : phase.conns) {
    out.queries += conn->queries_sent;
    out.failed += conn->queries_lost;
    for (const auto& [key, o] : conn->observed) {
      Observed& merged = observed[key];
      if (merged.count == 0) {
        merged = o;
      } else {
        merged.count += o.count;
        merged.disagreeing += o.disagreeing;
        if (!SameResult(merged.first, o.first)) merged.disagreeing += o.count;
      }
    }
  }
  std::vector<std::pair<VersionedQuery, Observed>> keys(observed.begin(),
                                                        observed.end());
  std::vector<RunOutcome> refs(keys.size());
  ThreadPool pool(kOracleThreads);
  pool.ParallelFor(keys.size(), [&](size_t i, int /*worker*/) {
    const auto& [version, k, s, e] = keys[i].first;
    if (version < graphs.size()) {
      refs[i] = RunAlgorithm(AlgorithmKind::kEnum, graphs[version],
                             Query{k, Window{s, e}});
    } else {
      refs[i].status = Status::NotFound("unknown graph version");
    }
  });
  std::set<std::tuple<uint32_t, Timestamp, Timestamp>> distinct;
  for (size_t i = 0; i < keys.size(); ++i) {
    const Observed& o = keys[i].second;
    const RunOutcome& ref = refs[i];
    out.failed += !ref.status.ok() || !Matches(o.first, ref)
                      ? o.count
                      : o.disagreeing;
    const auto& [version, k, s, e] = keys[i].first;
    (void)version;
    // Emptiness is judged at the lowest version the query was served on.
    if (distinct.emplace(k, s, e).second) {
      ++out.distinct;
      if (ref.num_cores == 0) ++out.empty_distinct;
    }
  }
  return out;
}

// Graph versions 0..N by replaying AppendEdges over the update stream;
// deltas[v - 1] separates version v from v - 1.
Status BuildVersionChain(const TemporalGraph& g0, const UpdateStream& stream,
                         std::vector<TemporalGraph>* graphs,
                         std::vector<EdgeDelta>* deltas, SpanLog* log) {
  graphs->assign(1, g0);
  deltas->clear();
  for (const auto& batch : stream.batches) {
    ScopedSpan span(log, "graph.append", -1, 0);
    auto update = graphs->back().AppendEdges(batch);
    if (!update.ok()) return update.status();
    graphs->push_back(std::move(update->graph));
    deltas->push_back(std::move(update->delta));
  }
  return Status::OK();
}

struct IndexReplay {
  uint64_t slices_reused = 0;
  uint64_t slices_total = 0;
  uint64_t rows_reused = 0;
  uint64_t rows_total = 0;
};

// PhcIndex::Build on version 0, then PhcIndex::Rebuild along the version
// chain (one swap per update batch), over the serving stack's pool size.
Status ReplayIndexChain(const std::vector<TemporalGraph>& graphs,
                        const std::vector<EdgeDelta>& deltas, SpanLog* log,
                        IndexReplay* out) {
  ThreadPool pool(kServingThreads);
  PhcBuildOptions options;
  options.pool = &pool;
  PhcIndex index;
  {
    ScopedSpan span(log, "vct.phc_build", -1, 0);
    auto built = PhcIndex::Build(graphs[0], graphs[0].FullRange(), options);
    if (!built.ok()) return built.status();
    index = std::move(*built);
  }
  for (size_t v = 1; v < graphs.size(); ++v) {
    PhcRebuildStats stats;
    ScopedSpan span(log, "vct.rebuild", -1, v);
    auto rebuilt =
        PhcIndex::Rebuild(index, graphs[v], deltas[v - 1], options, &stats);
    if (!rebuilt.ok()) return rebuilt.status();
    index = std::move(*rebuilt);
    out->slices_reused += stats.slices_reused;
    out->slices_total +=
        stats.slices_reused + stats.slices_rebuilt + stats.suffix_rebuilds;
    out->rows_reused += stats.rows_reused;
    out->rows_total += stats.rows_total;
  }
  return Status::OK();
}

// --- reporting ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  const char* unit = "";
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("%-36s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-36s %16.6f  %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

struct Outcome {
  PhaseResult phase;
  OracleResult oracle;
  std::vector<TemporalGraph> graphs;
  std::vector<EdgeDelta> deltas;
  double setup_s = 0;
  double seconds = 0;  // requested length of the timed phase

  uint64_t attempted() const {
    return oracle.queries + phase.writer.visible.count();
  }
  uint64_t failed() const { return oracle.failed + phase.writer.failed; }
  // Whole-phase OK queries per second.
  double mean_qps() const {
    uint64_t ok = 0;
    for (const auto& c : phase.conns) {
      for (const PhaseWindow& w : c->windows) ok += w.queries_ok;
    }
    return Ratio(static_cast<double>(ok), phase.elapsed_s);
  }
  // Window w of both connections; the last window runs to the last call.
  PhaseWindow window(int w) const {
    PhaseWindow merged;
    for (const auto& c : phase.conns) {
      merged.latency.Merge(c->windows[w].latency);
      merged.queries_ok += c->windows[w].queries_ok;
    }
    return merged;
  }
  double window_seconds(int w) const {
    const double len = seconds / kWindows;
    return w + 1 < kWindows ? len : phase.elapsed_s - (kWindows - 1) * len;
  }
  LatencyHistogram latencies() const {
    LatencyHistogram all;
    for (int w = 0; w < kWindows; ++w) all.Merge(window(w).latency);
    return all;
  }
};

// Sets up repeatedly when `measure_setup` (the median is setup_s), else
// once; runs one timed phase on the last stack and checks every verdict.
Status RunWorkload(WorkloadKind kind, uint64_t seed, double seconds,
                   bool traced, bool measure_setup, SpanLog* main_log,
                   Inputs* inputs, Outcome* out) {
  const SyntheticSpec spec = GraphSpecFor(kind);
  Stack stack;
  TemporalGraph g0;
  std::vector<double> setups;
  double spent = 0;
  do {
    const Clock::time_point t0 = Clock::now();
    const Status started = StartStack(spec, &stack, &g0);
    if (!started.ok()) return started;
    setups.push_back(MsBetween(t0, Clock::now()) / 1000.0);
    spent += setups.back();
  } while (measure_setup && static_cast<int>(setups.size()) < kMaxSetupReps &&
           (static_cast<int>(setups.size()) < kMinSetupReps ||
            spent < kSetupBudgetSeconds));
  out->setup_s = Median(setups);
  std::fprintf(stderr, "setup %.3f s (median of %zu)\n", out->setup_s,
               setups.size());
  *inputs = MakeInputs(kind, seed, g0);
  const Status ran = RunPhase(*inputs, &stack, g0, seconds, traced,
                              &out->phase);
  stack.server.reset();
  stack.live.reset();
  if (!ran.ok()) return ran;
  const Status chain = BuildVersionChain(g0, inputs->updates, &out->graphs,
                                         &out->deltas, main_log);
  if (!chain.ok()) return chain;
  const Clock::time_point oracle_start = Clock::now();
  out->oracle = CheckVerdicts(out->phase, out->graphs);
  std::fprintf(stderr, "oracle %.3f s for %" PRIu64 " queries\n",
               MsBetween(oracle_start, Clock::now()) / 1000.0,
               out->oracle.queries);
  out->seconds = seconds;
  return Status::OK();
}

void PrintInputs(const Inputs& in, const Outcome& out) {
  const TemporalGraph& g0 = out.graphs.front();
  std::printf(
      "inputs: {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"vertices\": %u, \"edges\": %u, \"timestamps\": %u, \"kmax\": %u, "
      "\"distinct_queries\": %" PRIu64 ", \"empty_share\": %.4f, "
      "\"hot_set\": %zu, \"cache_capacity\": %zu, \"update_batches\": %zu, "
      "\"update_edges_per_batch\": %zu, \"timeline_extending_batches\": %zu, "
      "\"calls\": %" PRIu64 "}\n",
      WorkloadName(in.kind), in.seed, g0.num_vertices(), g0.num_edges(),
      g0.num_timestamps(), in.kmax, out.oracle.distinct,
      Ratio(static_cast<double>(out.oracle.empty_distinct),
            static_cast<double>(out.oracle.distinct)),
      in.kind == WorkloadKind::kColdMiss ? size_t{0} : in.queries.size(),
      QueryEngineOptions{}.cache_capacity, in.updates.batches.size(),
      in.updates.batches.empty() ? size_t{0} : kEdgesPerUpdate,
      in.updates.timeline_extending, out.latencies().count());
}

int Main(int argc, char** argv) {
  auto flags_or = Flags::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "flag error: %s\n",
                 flags_or.status().ToString().c_str());
    return 2;
  }
  const Flags& flags = *flags_or;
  WorkloadKind kind;
  if (!ParseWorkload(flags.GetString("workload", ""), &kind)) {
    std::fprintf(stderr,
                 "--workload must be cold_miss, hot_repeat or update_stream\n");
    return 2;
  }
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const double seconds = flags.GetDouble("seconds", 20);
  const bool trace = flags.GetInt("trace", 0) != 0;
  const std::string trace_out = flags.GetString("trace-out", "");
  if (seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }

  SpanLog main_log;
  Inputs inputs;
  Outcome plain;
  Status s = RunWorkload(kind, seed, seconds, /*traced=*/false,
                         /*measure_setup=*/!trace, &main_log, &inputs,
                         &plain);
  if (!s.ok()) {
    std::fprintf(stderr, "run failed: %s\n", s.ToString().c_str());
    return 2;
  }
  PrintInputs(inputs, plain);
  if (plain.phase.exhausted) {
    std::fprintf(stderr, "the distinct query stream ran out mid-run\n");
    return 2;
  }
  const LatencyHistogram lat = plain.latencies();
  for (double p : {0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999}) {
    std::fprintf(stderr, "p%g %.3f ms (%" PRIu64 " calls)\n", p * 100,
                 lat.Quantile(p), lat.count());
  }
  // Per-window figures; p95 counts only in windows with at least 10 calls
  // beyond it.
  std::vector<double> qps_w, p50_w, p95_w;
  for (int w = 0; w < kWindows; ++w) {
    const PhaseWindow window = plain.window(w);
    qps_w.push_back(Ratio(static_cast<double>(window.queries_ok),
                          plain.window_seconds(w)));
    p50_w.push_back(window.latency.Quantile(0.5));
    double p95 = 0;
    if (window.latency.TailQuantile(0.95, &p95)) p95_w.push_back(p95);
    std::fprintf(stderr, "window %d: %.0f q/s, p50 %.4f ms, p95 %.4f ms, "
                 "%" PRIu64 " calls\n", w, qps_w.back(), p50_w.back(), p95,
                 window.latency.count());
  }
  if (p95_w.empty()) {
    std::fprintf(stderr,
                 "no window has 10 calls beyond p95 (%" PRIu64 " calls)\n",
                 lat.count());
    return 2;
  }

  if (!trace) {
    const std::vector<Metric> metrics = {
        {"setup_s", plain.setup_s, "s"},
        {"qps", Median(qps_w), "1/s"},
        {"call_p50_ms", Median(p50_w), "ms"},
        {"call_p95_ms", Median(p95_w), "ms"},
        {"peak_rss_mb", plain.phase.peak_rss_mb, "MB"},
    };
    const bool correct = plain.failed() == 0;
    PrintResult(correct, plain.attempted(), plain.failed(), metrics);
    return correct ? 0 : 1;
  }

  // Traced run, on a fresh stack.
  Inputs traced_inputs;
  Outcome traced;
  s = RunWorkload(kind, seed, seconds, /*traced=*/true,
                  /*measure_setup=*/false, &main_log, &traced_inputs, &traced);
  if (!s.ok()) {
    std::fprintf(stderr, "traced run failed: %s\n", s.ToString().c_str());
    return 2;
  }
  IndexReplay index;
  s = ReplayIndexChain(traced.graphs, traced.deltas, &main_log, &index);
  if (!s.ok()) {
    std::fprintf(stderr, "index replay failed: %s\n", s.ToString().c_str());
    return 2;
  }

  std::vector<const SpanLog*> logs = {&main_log};
  ReplayCounters rc;
  for (const auto& conn : traced.phase.conns) {
    logs.push_back(&conn->spans);
    rc.Add(conn->replay);
  }
  // Hot workloads record millions of spans; the file keeps the first ones
  // of each thread, the metrics use them all.
  if (!trace_out.empty() && !WriteSpans(trace_out, logs, kSpansWritten)) {
    std::fprintf(stderr, "could not write %s\n", trace_out.c_str());
  }
  std::map<std::string, LayerTime> layers = AggregateSpans(logs);
  const double calls = static_cast<double>(rc.calls);
  const double replayed = static_cast<double>(rc.replayed);
  const double queries = static_cast<double>(rc.queries);
  const double swaps = static_cast<double>(traced.deltas.size());
  uint64_t timeline_preserving = 0;
  for (const EdgeDelta& d : traced.deltas) {
    if (d.timestamps_preserved) ++timeline_preserving;
  }
  const LiveStats& live = plain.phase.live;
  double p99 = 0;  // stays 0 when fewer than 10 calls lie beyond p99
  (void)lat.TailQuantile(0.99, &p99);
  const std::vector<Metric> metrics = {
      {"net.self_us_per_call", 1e6 * Ratio(layers["net.wire"].self_s, calls),
       "us"},
      {"net.encode_us_per_call",
       1e6 * Ratio(layers["net.encode"].total_s, calls), "us"},
      {"net.request_bytes_per_call",
       Ratio(static_cast<double>(rc.request_bytes), calls), "bytes"},
      {"net.response_bytes_per_call",
       Ratio(static_cast<double>(rc.response_bytes), calls), "bytes"},
      {"net.requests_received",
       static_cast<double>(plain.phase.server.requests_received), "count"},
      {"net.responses_streamed",
       static_cast<double>(plain.phase.server.responses_streamed), "count"},
      {"serve.batch_us", 1e6 * Ratio(layers["serve.batch"].total_s, calls),
       "us"},
      {"serve.self_us_per_call",
       1e6 * Ratio(layers["serve.batch"].self_s, calls), "us"},
      {"serve.cache_hit_ratio",
       Ratio(static_cast<double>(rc.cache_hits), queries), "ratio"},
      {"serve.admission_reject_ratio",
       Ratio(static_cast<double>(rc.rejections), queries), "ratio"},
      {"serve.dedup_ratio", Ratio(static_cast<double>(rc.dedup_hits), queries),
       "ratio"},
      {"serve.executed_per_call",
       Ratio(static_cast<double>(rc.executed), calls), "count"},
      {"serve.batches_shed",
       static_cast<double>(plain.phase.server.batches_shed), "count"},
      {"serve.deadlines_expired",
       static_cast<double>(plain.phase.server.deadlines_expired), "count"},
      {"serve.swaps", static_cast<double>(live.swaps), "count"},
      {"serve.batches_coalesced",
       static_cast<double>(live.update.batches_coalesced), "count"},
      {"serve.cache_entries_carried",
       static_cast<double>(live.update.cache_entries_carried), "count"},
      {"serve.emergence_tables_carried",
       static_cast<double>(live.update.emergence_tables_carried), "count"},
      {"serve.rebuild_s_total", plain.phase.writer.rebuild_s_total, "s"},
      {"vct.coretime_ms_per_executed",
       1e3 * Ratio(layers["vct.coretime"].total_s, replayed), "ms"},
      {"vct.coretime_share",
       Ratio(layers["vct.coretime"].total_s, layers["serve.batch"].total_s),
       "ratio"},
      {"vct.vct_entries_per_executed",
       Ratio(static_cast<double>(rc.vct_entries), replayed), "count"},
      {"vct.ecs_windows_per_executed",
       Ratio(static_cast<double>(rc.ecs_windows), replayed), "count"},
      {"vct.phc_build_s", layers["vct.phc_build"].total_s, "s"},
      {"vct.index_entries", static_cast<double>(plain.phase.index_entries),
       "count"},
      {"vct.rebuild_ms_per_swap",
       1e3 * Ratio(layers["vct.rebuild"].total_s, swaps), "ms"},
      {"vct.slices_reused_ratio",
       Ratio(static_cast<double>(index.slices_reused),
             static_cast<double>(index.slices_total)),
       "ratio"},
      {"vct.rows_reused_ratio",
       Ratio(static_cast<double>(index.rows_reused),
             static_cast<double>(index.rows_total)),
       "ratio"},
      {"core.enum_ms_per_executed",
       1e3 * Ratio(layers["core.enum"].total_s, replayed), "ms"},
      {"core.result_edges_per_executed",
       Ratio(static_cast<double>(rc.result_edges), replayed), "count"},
      {"core.cores_per_executed",
       Ratio(static_cast<double>(rc.cores), replayed), "count"},
      {"graph.append_ms_per_batch",
       1e3 * Ratio(layers["graph.append"].total_s,
                   static_cast<double>(layers["graph.append"].count)),
       "ms"},
      {"graph.edges_final",
       static_cast<double>(traced.graphs.back().num_edges()), "count"},
      {"graph.timestamps_final",
       static_cast<double>(traced.graphs.back().num_timestamps()), "count"},
      {"graph.batches_timeline_preserving",
       static_cast<double>(timeline_preserving), "count"},
      {"graph.batches_timeline_extending",
       swaps - static_cast<double>(timeline_preserving), "count"},
      {"workload.distinct_queries", static_cast<double>(plain.oracle.distinct),
       "count"},
      {"workload.empty_share",
       Ratio(static_cast<double>(plain.oracle.empty_distinct),
             static_cast<double>(plain.oracle.distinct)),
       "ratio"},
      {"workload.writer_late_ms_max", plain.phase.writer.late.Quantile(1.0),
       "ms"},
      {"workload.update_visible_p50_ms",
       plain.phase.writer.visible.Quantile(0.5), "ms"},
      {"workload.update_visible_max_ms",
       plain.phase.writer.visible.Quantile(1.0), "ms"},
      {"workload.call_p99_ms", p99, "ms"},
      {"workload.failed_ratio",
       Ratio(static_cast<double>(plain.failed() + traced.failed()),
             static_cast<double>(plain.attempted() + traced.attempted())),
       "ratio"},
      {"workload.trace_overhead", Ratio(traced.mean_qps(), plain.mean_qps()),
       "ratio"},
  };
  const bool correct = plain.failed() == 0 && traced.failed() == 0;
  PrintResult(correct, plain.attempted() + traced.attempted(),
              plain.failed() + traced.failed(), metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace tkc::e2e

int main(int argc, char** argv) { return tkc::e2e::Main(argc, argv); }
