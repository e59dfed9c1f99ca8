// Thread-scaling benchmark (the "scaling truth" tier): one synthetic graph
// and three measurements per thread count in {1, 2, 4, 8}:
//
//   * build                  — PhcIndex::Build wall time on an N-thread
//     pool (edges/sec, speedup vs the 1-thread build);
//   * queries_idle           — async batch throughput through a
//     LiveQueryEngine with no updates in flight (qps, speedup);
//   * queries_during_updates — the same stream submitted while ApplyUpdates
//     snapshot swaps run continuously on the engine's dedicated update
//     pool; the ratio to idle qps is what queries pay for concurrent
//     rebuilds.
//
// Two tiers share this binary:
//
//   * the default tier is small enough to run anywhere in seconds and is
//     how the binary itself gets exercised;
//   * --large switches to the 10^6-edge tier the scaling claims are made
//     at (tens of thousands of vertices, a million-plus temporal edges
//     from the activity-driven generator). It is deliberately NOT wired
//     into CI or the regression gate — it exists to measure scaling on
//     real multi-core hardware, where a run takes minutes, not to police
//     per-commit noise. Run it manually:
//
//       ./bench_scaling --large [--reps=3] [--out=BENCH_scaling.json]
//
// Self-verifying: per-query result summaries from the serve phases must
// agree across every thread count (the first thread count's outcomes are
// the reference), every during-update batch must complete on a version at
// least as new as the one pinned at submission, and the swap chain must
// drain completely. Violations write "identical": false into the JSON.
//
// Flags (env fallbacks TKC_<UPPER>): --vertices --edges --timestamps
// --seed --unique (queries per batch) --rounds (batches per pass)
// --events (update batches) --update-edges --reps (best-of) --threads=N
// (adds one thread count) --large --out.

#include <algorithm>
#include <cstdio>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "datasets/generators.h"
#include "serve/snapshot.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace tkc {
namespace {

// The per-query summary compared across thread counts. Status text is
// excluded on purpose: only result-bearing fields decide identity.
struct OutcomeSummary {
  bool ok = false;
  uint64_t num_cores = 0;
  uint64_t result_size_edges = 0;
  uint64_t vct_size = 0;
  uint64_t ecs_size = 0;

  bool operator==(const OutcomeSummary&) const = default;
};

OutcomeSummary Summarize(const RunOutcome& outcome) {
  OutcomeSummary s;
  s.ok = outcome.status.ok();
  s.num_cores = outcome.num_cores;
  s.result_size_edges = outcome.result_size_edges;
  s.vct_size = outcome.vct_size;
  s.ecs_size = outcome.ecs_size;
  return s;
}

}  // namespace
}  // namespace tkc

int main(int argc, char** argv) {
  using namespace tkc;
  using namespace tkc::bench;

  auto flags_or = Flags::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "flag error: %s\n",
                 flags_or.status().ToString().c_str());
    return 1;
  }
  const Flags& flags = *flags_or;
  const bool large = flags.Has("large") && flags.GetBool("large", true);
  // The default tier is sized to finish in seconds on one core; --large is
  // the million-edge tier the scaling curves are quoted at.
  const uint32_t vertices = static_cast<uint32_t>(
      flags.GetInt("vertices", large ? 40000 : 900));
  const uint32_t edges = static_cast<uint32_t>(
      flags.GetInt("edges", large ? 1200000 : 22000));
  const uint32_t timestamps = static_cast<uint32_t>(
      flags.GetInt("timestamps", large ? 4000 : 140));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const uint32_t unique =
      static_cast<uint32_t>(flags.GetInt("unique", large ? 24 : 16));
  const uint32_t rounds =
      static_cast<uint32_t>(flags.GetInt("rounds", large ? 6 : 4));
  const uint32_t events =
      static_cast<uint32_t>(flags.GetInt("events", large ? 4 : 3));
  const uint32_t update_edges = static_cast<uint32_t>(
      flags.GetInt("update-edges", large ? 2000 : 60));
  const int reps = static_cast<int>(flags.GetInt("reps", 1));
  const std::string out_path = flags.GetString("out", "BENCH_scaling.json");

  SyntheticSpec graph_spec;
  graph_spec.name = large ? "scaling-large" : "scaling";
  graph_spec.num_vertices = vertices;
  graph_spec.num_edges = edges;
  graph_spec.num_timestamps = timestamps;
  graph_spec.burstiness = 0.2;
  graph_spec.seed = seed;
  TemporalGraph base = GenerateSynthetic(graph_spec);
  GraphStats stats = ComputeGraphStats(base);

  // Fixed update stream, shared by every thread count: uniform edges over
  // the existing vertex pool at raw times across and past the current span.
  Rng rng(seed * 7919);
  std::vector<std::vector<RawTemporalEdge>> update_stream(events);
  for (auto& batch : update_stream) {
    for (uint32_t i = 0; i < update_edges; ++i) {
      RawTemporalEdge e;
      e.u = static_cast<VertexId>(rng.NextBounded(vertices));
      e.v = static_cast<VertexId>(rng.NextBounded(vertices));
      e.raw_time = rng.NextInRange(1, timestamps + timestamps / 4 + 1);
      batch.push_back(e);
    }
  }

  std::vector<Query> queries;
  {
    WorkloadSpec spec;
    spec.k_fraction = 0.30;
    spec.range_fraction = large ? 0.05 : 0.10;
    spec.num_queries = unique;
    spec.seed = seed;
    auto generated = GenerateQueries(base, stats.kmax, spec);
    if (!generated.ok()) {
      std::fprintf(stderr, "workload: %s\n",
                   generated.status().ToString().c_str());
      return 1;
    }
    queries = std::move(generated).value();
  }

  std::printf(
      "=== Scaling%s: %u vertices, %u edges (|E|=%llu after dedup-compact), "
      "%u timestamps, kmax=%u; %zu queries x%u rounds, %u update batches "
      "x%u edges, best of %d ===\n",
      large ? " (LARGE tier)" : "", vertices, edges,
      static_cast<unsigned long long>(base.num_edges()), timestamps,
      stats.kmax, queries.size(), rounds, events, update_edges, reps);

  std::vector<int> thread_counts = {1, 2, 4, 8};
  if (flags.Has("threads")) {
    thread_counts.push_back(
        std::max(1, static_cast<int>(flags.GetInt("threads", 1))));
  }
  std::sort(thread_counts.begin(), thread_counts.end());
  thread_counts.erase(
      std::unique(thread_counts.begin(), thread_counts.end()),
      thread_counts.end());

  TextTable table;
  table.SetHeader({"Threads", "build s", "build x", "idle q/s", "idle x",
                   "live q/s", "live x", "live/idle", "identical"});
  JsonRecords records;
  bool all_identical = true;
  double build_seconds_1thread = 0;
  double idle_qps_1thread = 0;
  double live_qps_1thread = 0;
  // Reference summaries from the first thread count's serve phase; every
  // later thread count must reproduce them query for query.
  std::vector<OutcomeSummary> reference_summaries;

  for (int threads : thread_counts) {
    ThreadPool pool(threads);
    bool identical = true;

    // --- build: from-scratch index construction on an N-thread pool. ----
    double best_build = -1;
    for (int rep = 0; rep < reps; ++rep) {
      PhcBuildOptions build_opts;
      build_opts.pool = &pool;
      WallTimer timer;
      auto index = PhcIndex::Build(base, base.FullRange(), build_opts);
      double seconds = timer.ElapsedSeconds();
      if (!index.ok()) {
        std::fprintf(stderr, "build: %s\n",
                     index.status().ToString().c_str());
        return 1;
      }
      if (best_build < 0 || seconds < best_build) best_build = seconds;
    }

    LiveEngineOptions options;
    options.engine.pool = &pool;
    options.engine.build_index = true;
    options.engine.cache_capacity = 0;  // every round must execute

    auto collect =
        [&](std::vector<std::pair<std::future<BatchResult>, uint64_t>>*
                pending) {
          std::vector<std::pair<BatchResult, uint64_t>> results;
          results.reserve(pending->size());
          for (auto& [future, version_at_submission] : *pending) {
            results.emplace_back(future.get(), version_at_submission);
          }
          pending->clear();
          return results;
        };

    // --- queries_idle: async throughput, no swaps in flight. ------------
    double best_idle = -1;
    for (int rep = 0; rep < reps; ++rep) {
      auto live = LiveQueryEngine::Create(base, options);
      if (!live.ok()) {
        std::fprintf(stderr, "engine: %s\n",
                     live.status().ToString().c_str());
        return 1;
      }
      std::vector<std::pair<std::future<BatchResult>, uint64_t>> pending;
      WallTimer timer;
      for (uint32_t r = 0; r < rounds; ++r) {
        pending.emplace_back(SubmitFuture(**live, {queries}),
                             (*live)->version());
      }
      auto results = collect(&pending);
      double seconds = timer.ElapsedSeconds();
      if (best_idle < 0 || seconds < best_idle) best_idle = seconds;
      // Cross-thread-count identity: the first thread count measured
      // establishes the per-query reference; everyone else must match it.
      for (const auto& [result, version] : results) {
        identical = identical && result.snapshot_version == 0;
        if (reference_summaries.empty()) {
          for (const auto& outcome : result.outcomes) {
            reference_summaries.push_back(Summarize(outcome));
          }
        } else {
          identical =
              identical && result.outcomes.size() == reference_summaries.size();
          for (size_t qi = 0; identical && qi < result.outcomes.size(); ++qi) {
            identical = Summarize(result.outcomes[qi]) ==
                        reference_summaries[qi];
          }
        }
      }
    }

    // --- queries_during_updates: swaps run underneath. ------------------
    double best_live = -1;
    for (int rep = 0; rep < reps; ++rep) {
      auto live = LiveQueryEngine::Create(base, options);
      if (!live.ok()) return 1;
      std::vector<std::future<Status>> swaps;
      std::vector<std::pair<std::future<BatchResult>, uint64_t>> pending;
      WallTimer timer;
      size_t next_event = 0;
      const uint32_t per_event = std::max(1u, rounds / std::max(1u, events));
      for (uint32_t r = 0; r < rounds; ++r) {
        pending.emplace_back(SubmitFuture(**live, {queries}),
                             (*live)->version());
        if ((r + 1) % per_event == 0 && next_event < update_stream.size()) {
          swaps.push_back((*live)->ApplyUpdates(update_stream[next_event]));
          ++next_event;
        }
      }
      auto results = collect(&pending);
      double seconds = timer.ElapsedSeconds();  // queries only: swaps may
                                                // still be running
      if (best_live < 0 || seconds < best_live) best_live = seconds;
      for (const auto& [result, version_at_submission] : results) {
        identical = identical &&
                    result.snapshot_version >= version_at_submission &&
                    result.snapshot_version <= update_stream.size();
      }
      while (next_event < update_stream.size()) {
        swaps.push_back((*live)->ApplyUpdates(update_stream[next_event]));
        ++next_event;
      }
      for (auto& swap : swaps) identical = identical && swap.get().ok();
      identical = identical && (*live)->version() == update_stream.size();
    }
    all_identical = all_identical && identical;

    const double stream = static_cast<double>(queries.size()) * rounds;
    double idle_qps = best_idle > 0 ? stream / best_idle : 0;
    double live_qps = best_live > 0 ? stream / best_live : 0;
    if (threads == thread_counts.front()) {
      build_seconds_1thread = best_build;
      idle_qps_1thread = idle_qps;
      live_qps_1thread = live_qps;
    }
    double build_speedup =
        best_build > 0 ? build_seconds_1thread / best_build : 0;
    double idle_speedup = idle_qps_1thread > 0 ? idle_qps / idle_qps_1thread
                                               : 0;
    double live_speedup = live_qps_1thread > 0 ? live_qps / live_qps_1thread
                                               : 0;
    double overlap_ratio = idle_qps > 0 ? live_qps / idle_qps : 0;

    char build_x[32], idle_x[32], live_x[32], ratio_cell[32];
    std::snprintf(build_x, sizeof(build_x), "%.2f", build_speedup);
    std::snprintf(idle_x, sizeof(idle_x), "%.2f", idle_speedup);
    std::snprintf(live_x, sizeof(live_x), "%.2f", live_speedup);
    std::snprintf(ratio_cell, sizeof(ratio_cell), "%.2f", overlap_ratio);
    table.AddRow({TextTable::Cell(static_cast<uint64_t>(threads)),
                  TextTable::Cell(best_build, 3), build_x,
                  TextTable::Cell(idle_qps, 1), idle_x,
                  TextTable::Cell(live_qps, 1), live_x, ratio_cell,
                  identical ? "yes" : "NO"});

    for (int mode = 0; mode < 3; ++mode) {
      records.BeginRecord();
      records.Add("bench", std::string("scaling"));
      records.Add("mode", std::string(mode == 0   ? "build"
                                      : mode == 1 ? "queries_idle"
                                                  : "queries_during_updates"));
      records.Add("large", large);
      records.Add("vertices", static_cast<uint64_t>(vertices));
      records.Add("edges", static_cast<uint64_t>(edges));
      records.Add("compacted_edges", static_cast<uint64_t>(base.num_edges()));
      records.Add("timestamps", static_cast<uint64_t>(timestamps));
      records.Add("kmax", static_cast<uint64_t>(stats.kmax));
      records.Add("unique_queries", static_cast<uint64_t>(queries.size()));
      records.Add("rounds", static_cast<uint64_t>(rounds));
      records.Add("update_batches", static_cast<uint64_t>(events));
      records.Add("update_edges", static_cast<uint64_t>(update_edges));
      records.Add("threads", threads);
      if (mode == 0) {
        records.Add("seconds", best_build);
        records.Add(
            "edges_per_sec",
            best_build > 0
                ? static_cast<double>(base.num_edges()) / best_build
                : 0.0);
        records.Add("speedup", build_speedup);
      } else if (mode == 1) {
        records.Add("seconds", best_idle);
        records.Add("qps", idle_qps);
        records.Add("speedup", idle_speedup);
      } else {
        records.Add("seconds", best_live);
        records.Add("qps", live_qps);
        records.Add("speedup", live_speedup);
        records.Add("overlap_ratio", overlap_ratio);
      }
      records.Add("identical", identical);
    }
  }
  table.Print();
  if (records.WriteFile(out_path)) {
    std::printf("wrote %s\n", out_path.c_str());
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "ERROR: serve results diverged across thread counts, a "
                 "batch answered against a stale pin, or a swap failed\n");
    return 1;
  }
  return 0;
}
