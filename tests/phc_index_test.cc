// Tests of the multi-k PHC index against per-window peeling and the
// single-k builders.

#include "vct/phc_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "datasets/generators.h"
#include "graph/core_decomposition.h"
#include "graph/window_peeler.h"
#include "util/rng.h"
#include "vct/index_io.h"
#include "vct/vct_builder.h"

namespace tkc {
namespace {

TEST(PhcIndexTest, SlicesMatchSingleKBuilders) {
  TemporalGraph g = PaperExampleGraph();
  auto index = PhcIndex::Build(g, g.FullRange());
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->max_k(), 2u);  // the example's kmax
  for (uint32_t k = 1; k <= index->max_k(); ++k) {
    VertexCoreTimeIndex expected = BuildVctAndEcs(g, k, g.FullRange()).vct;
    const VertexCoreTimeIndex& slice = index->Slice(k);
    ASSERT_EQ(slice.size(), expected.size()) << "k=" << k;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      auto a = slice.EntriesOf(v), b = expected.EntriesOf(v);
      ASSERT_EQ(a.size(), b.size());
      for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
    }
  }
}

TEST(PhcIndexTest, MembershipMatchesPeelerAcrossK) {
  TemporalGraph g = GenerateUniformRandom(14, 90, 10, 3);
  auto index = PhcIndex::Build(g, g.FullRange());
  ASSERT_TRUE(index.ok());
  for (uint32_t k = 1; k <= index->max_k(); ++k) {
    for (Timestamp a = 1; a <= g.num_timestamps(); a += 2) {
      for (Timestamp b = a; b <= g.num_timestamps(); b += 2) {
        std::vector<bool> oracle =
            ComputeWindowCoreVertices(g, k, Window{a, b});
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
          EXPECT_EQ(index->VertexInCore(v, Window{a, b}, k),
                    static_cast<bool>(oracle[v]))
              << "k=" << k << " window [" << a << "," << b << "] v=" << v;
        }
      }
    }
  }
}

TEST(PhcIndexTest, HistoricalCoreNumberMatchesDecomposition) {
  TemporalGraph g = GenerateUniformRandom(12, 80, 10, 7);
  auto index = PhcIndex::Build(g, g.FullRange());
  ASSERT_TRUE(index.ok());
  for (Timestamp a = 1; a <= g.num_timestamps(); a += 3) {
    for (Timestamp b = a; b <= g.num_timestamps(); b += 3) {
      CoreDecompositionResult cores = DecomposeCores(g, Window{a, b});
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        EXPECT_EQ(index->HistoricalCoreNumber(v, Window{a, b}),
                  cores.core_numbers[v])
            << "window [" << a << "," << b << "] v=" << v;
      }
    }
  }
}

TEST(PhcIndexTest, KBeyondMaxIsInfinity) {
  TemporalGraph g = PaperExampleGraph();
  auto index = PhcIndex::Build(g, g.FullRange());
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->CoreTimeAt(1, 1, index->max_k() + 1), kInfTime);
  EXPECT_EQ(index->CoreTimeAt(1, 1, 0), kInfTime);
  EXPECT_FALSE(index->VertexInCore(1, g.FullRange(), index->max_k() + 5));
}

TEST(PhcIndexTest, MaxKCapRespected) {
  TemporalGraph g = GenerateUniformRandom(14, 120, 8, 9);
  auto full = PhcIndex::Build(g, g.FullRange());
  ASSERT_TRUE(full.ok());
  if (full->max_k() < 2) GTEST_SKIP() << "graph too sparse";
  auto capped = PhcIndex::Build(g, g.FullRange(), 2);
  ASSERT_TRUE(capped.ok());
  EXPECT_EQ(capped->max_k(), 2u);
  EXPECT_LT(capped->size(), full->size());
}

TEST(PhcIndexTest, InvalidRangeRejected) {
  TemporalGraph g = PaperExampleGraph();
  EXPECT_FALSE(PhcIndex::Build(g, Window{0, 3}).ok());
  EXPECT_FALSE(PhcIndex::Build(g, Window{3, 99}).ok());
}

TEST(PhcIndexTest, SizeAndMemoryAggregate) {
  TemporalGraph g = GenerateUniformRandom(12, 70, 10, 11);
  auto index = PhcIndex::Build(g, g.FullRange());
  ASSERT_TRUE(index.ok());
  uint64_t total = 0;
  for (uint32_t k = 1; k <= index->max_k(); ++k) {
    total += index->Slice(k).size();
  }
  EXPECT_EQ(index->size(), total);
  EXPECT_GT(index->MemoryUsageBytes(), 0u);
}

// --- Emergence tables vs. brute-force peeling ---------------------------

// Peels every window [ts, te] of `g` for every k up to one past the index's
// max_k: the emergence entry for (k, ts) must be the first te whose k-core
// is non-empty (kInfTime when none is), and MayContainCore must report
// exactly the non-empty windows.
void ExpectEmergenceMatchesPeeling(const TemporalGraph& g,
                                   const PhcIndex& index,
                                   const std::string& label) {
  ASSERT_TRUE(index.complete()) << label;
  const Timestamp tmax = g.num_timestamps();
  for (uint32_t k = 1; k <= index.max_k() + 1; ++k) {
    const std::span<const Timestamp> table = index.EmergenceTable(k);
    ASSERT_EQ(table.size(), k <= index.max_k() ? tmax : 0u)
        << label << " k=" << k;
    for (Timestamp ts = 1; ts <= tmax; ++ts) {
      Timestamp first = kInfTime;
      for (Timestamp te = ts; te <= tmax; ++te) {
        const std::vector<bool> core =
            ComputeWindowCoreVertices(g, k, Window{ts, te});
        const bool nonempty =
            std::find(core.begin(), core.end(), true) != core.end();
        if (nonempty && first == kInfTime) first = te;
        EXPECT_EQ(index.MayContainCore(k, Window{ts, te}), nonempty)
            << label << " k=" << k << " window [" << ts << "," << te << "]";
      }
      if (k <= index.max_k()) {
        EXPECT_EQ(table[ts - 1], first) << label << " k=" << k << " ts=" << ts;
      }
    }
  }
}

TEST(PhcEmergenceTest, EveryEntryMatchesPeelingOracle) {
  // Built, Rebuild-maintained (suffix-stitched and pointer-reused slices)
  // and deserialized indexes each derive their tables where the slice is
  // made; all must agree with peeling, entry for entry.
  uint32_t suffix_rebuilds = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    TemporalGraph dense = GenerateUniformRandom(14, 160, 10, seed);
    const VertexId p = dense.num_vertices(), q = p + 1;
    auto based = dense.AppendEdges(std::vector<RawTemporalEdge>{
        {p, 0, dense.RawTimestamp(1)}, {q, 1, dense.RawTimestamp(2)}});
    ASSERT_TRUE(based.ok());
    const TemporalGraph base = std::move(based->graph);
    const std::string tag = "seed=" + std::to_string(seed);

    auto built = PhcIndex::Build(base, base.FullRange());
    ASSERT_TRUE(built.ok());
    ExpectEmergenceMatchesPeeling(base, *built, tag + " built");

    auto loaded = DeserializePhcIndex(SerializePhcIndex(*built));
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectEmergenceMatchesPeeling(base, *loaded, tag + " loaded");

    // A pendant pair joined late in the timeline plus one edge inside the
    // dense part: dirty slices are maintained by suffix stitching.
    Rng rng(seed);
    const Timestamp late = base.num_timestamps() - 1;
    auto update = base.AppendEdges(std::vector<RawTemporalEdge>{
        {p, q, base.RawTimestamp(late)},
        {static_cast<VertexId>(rng.NextBounded(6)),
         static_cast<VertexId>(6 + rng.NextBounded(6)),
         base.RawTimestamp(late - 1)}});
    ASSERT_TRUE(update.ok());
    PhcRebuildStats stats;
    auto rebuilt = PhcIndex::Rebuild(*built, update->graph, update->delta,
                                     PhcBuildOptions{}, &stats);
    ASSERT_TRUE(rebuilt.ok());
    suffix_rebuilds += stats.suffix_rebuilds;
    ExpectEmergenceMatchesPeeling(update->graph, *rebuilt, tag + " rebuilt");
  }
  EXPECT_GT(suffix_rebuilds, 0u) << "no stitched slice was exercised";
}

// --- Delta-aware Rebuild -----------------------------------------------

// Helper: rebuild via AppendEdges + Rebuild and a from-scratch build on
// the same successor graph; assert the two indexes are bit-identical.
void ExpectRebuildMatchesBuild(const TemporalGraph& base,
                               const std::vector<RawTemporalEdge>& edges,
                               uint32_t max_k_cap, PhcRebuildStats* stats,
                               GraphUpdate* update_out = nullptr) {
  PhcBuildOptions build;
  build.max_k = max_k_cap;
  auto old_index = PhcIndex::Build(base, base.FullRange(), build);
  ASSERT_TRUE(old_index.ok());
  auto update = base.AppendEdges(edges);
  ASSERT_TRUE(update.ok());
  auto rebuilt = PhcIndex::Rebuild(*old_index, update->graph, update->delta,
                                   build, stats);
  ASSERT_TRUE(rebuilt.ok());
  auto fresh = PhcIndex::Build(update->graph, update->graph.FullRange(),
                               build);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(*rebuilt == *fresh);
  if (update_out != nullptr) *update_out = std::move(update).value();
}

TEST(PhcRebuildTest, SmallDeltaReusesSlicesByPointer) {
  // Dense core + two pendants; the delta connects the pendants at an
  // existing raw time, so max_core_bound == 2 and every slice above 2
  // must be the *same object* as the old index's.
  TemporalGraph dense = GenerateUniformRandom(18, 300, 10, 21);
  const VertexId p = dense.num_vertices(), q = p + 1;
  auto based = dense.AppendEdges(std::vector<RawTemporalEdge>{
      {p, 0, dense.RawTimestamp(1)}, {q, 1, dense.RawTimestamp(2)}});
  ASSERT_TRUE(based.ok());
  TemporalGraph base = std::move(based->graph);

  PhcBuildOptions build;
  auto old_index = PhcIndex::Build(base, base.FullRange(), build);
  ASSERT_TRUE(old_index.ok());
  ASSERT_GT(old_index->max_k(), 3u);

  auto update = base.AppendEdges(
      std::vector<RawTemporalEdge>{{p, q, base.RawTimestamp(3)}});
  ASSERT_TRUE(update.ok());
  ASSERT_TRUE(update->delta.timestamps_preserved);
  ASSERT_TRUE(update->delta.vertices_preserved);
  ASSERT_EQ(update->delta.max_core_bound, 2u);

  PhcRebuildStats stats;
  auto rebuilt = PhcIndex::Rebuild(*old_index, update->graph, update->delta,
                                   build, &stats);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(stats.clean_above_k, 2u);
  // The dirty slices (k = 1, 2) are maintained, not pointer-reused — since
  // the delta sits at one interior timestamp, they go through the suffix
  // path (recompute the band, carry prefix/tail rows) rather than a whole
  // rebuild.
  EXPECT_EQ(stats.suffix_rebuilds + stats.slices_rebuilt, 2u);
  EXPECT_EQ(stats.suffix_rebuilds, 2u);
  EXPECT_GT(stats.rows_reused, 0u);
  EXPECT_EQ(stats.slices_reused, old_index->max_k() - 2);
  for (uint32_t k = 1; k <= rebuilt->max_k(); ++k) {
    const bool shared =
        rebuilt->SliceShared(k) == old_index->SliceShared(k);
    EXPECT_EQ(shared, k > 2) << "k=" << k;
  }
  // And the reused slices are genuinely correct for the new graph.
  auto fresh =
      PhcIndex::Build(update->graph, update->graph.FullRange(), build);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(*rebuilt == *fresh);
}

TEST(PhcRebuildTest, EmptyDeltaReusesEverySlice) {
  TemporalGraph g = GenerateUniformRandom(14, 120, 9, 7);
  PhcBuildOptions build;
  auto old_index = PhcIndex::Build(g, g.FullRange(), build);
  ASSERT_TRUE(old_index.ok());
  // Append only duplicates: the successor graph is bit-identical.
  std::vector<RawTemporalEdge> dupes;
  for (EdgeId e = 0; e < 4; ++e) {
    dupes.push_back({g.edge(e).u, g.edge(e).v, g.RawTimestamp(g.edge(e).t)});
  }
  auto update = g.AppendEdges(dupes);
  ASSERT_TRUE(update.ok());
  ASSERT_TRUE(update->delta.empty());
  PhcRebuildStats stats;
  auto rebuilt = PhcIndex::Rebuild(*old_index, update->graph, update->delta,
                                   build, &stats);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(stats.clean_above_k, 0u);
  EXPECT_EQ(stats.slices_rebuilt, 0u);
  EXPECT_EQ(stats.slices_reused, old_index->max_k());
  for (uint32_t k = 1; k <= rebuilt->max_k(); ++k) {
    EXPECT_EQ(rebuilt->SliceShared(k), old_index->SliceShared(k));
  }
}

TEST(PhcRebuildTest, NewTimestampForcesFullRebuild) {
  TemporalGraph g = GenerateUniformRandom(14, 120, 9, 7);
  PhcBuildOptions build;
  auto old_index = PhcIndex::Build(g, g.FullRange(), build);
  ASSERT_TRUE(old_index.ok());
  auto update =
      g.AppendEdges(std::vector<RawTemporalEdge>{{0, 1, 999999}});
  ASSERT_TRUE(update.ok());
  ASSERT_FALSE(update->delta.timestamps_preserved);
  PhcRebuildStats stats;
  auto rebuilt = PhcIndex::Rebuild(*old_index, update->graph, update->delta,
                                   build, &stats);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_FALSE(stats.reuse_eligible());
  EXPECT_EQ(stats.slices_reused, 0u);
  EXPECT_EQ(stats.slices_rebuilt, rebuilt->max_k());
}

TEST(PhcRebuildTest, LateDeltaMaintainsDirtySlicesBySuffix) {
  // A pendant-to-pendant delta at the *last* timestamp: slices k <= 2 are
  // dirty by the core bound, but every core time below that timestamp is
  // pinned, so they must be maintained by recomputing only the trailing
  // start band — carrying the prefix rows — and still be bit-identical to
  // a from-scratch build.
  TemporalGraph dense = GenerateUniformRandom(18, 300, 10, 21);
  const VertexId p = dense.num_vertices(), q = p + 1;
  auto based = dense.AppendEdges(std::vector<RawTemporalEdge>{
      {p, 0, dense.RawTimestamp(1)}, {q, 1, dense.RawTimestamp(2)}});
  ASSERT_TRUE(based.ok());
  TemporalGraph base = std::move(based->graph);

  PhcBuildOptions build;
  auto old_index = PhcIndex::Build(base, base.FullRange(), build);
  ASSERT_TRUE(old_index.ok());

  const Timestamp last = base.num_timestamps();
  auto update = base.AppendEdges(
      std::vector<RawTemporalEdge>{{p, q, base.RawTimestamp(last)}});
  ASSERT_TRUE(update.ok());
  ASSERT_TRUE(update->delta.timestamps_preserved);
  ASSERT_EQ(update->delta.TimeExtent(), (Window{last, last}));

  PhcRebuildStats stats;
  auto rebuilt = PhcIndex::Rebuild(*old_index, update->graph, update->delta,
                                   build, &stats);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_GT(stats.suffix_rebuilds, 0u);
  EXPECT_GT(stats.rows_reused, 0u);
  EXPECT_EQ(stats.slices_reused + stats.suffix_rebuilds + stats.slices_rebuilt,
            rebuilt->max_k());
  auto fresh =
      PhcIndex::Build(update->graph, update->graph.FullRange(), build);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(*rebuilt == *fresh);
  EXPECT_EQ(stats.rows_total, fresh->size());
  // Suffix-maintained slices are new objects (never aliased into the old
  // index), and reused ones are the exact old objects.
  for (uint32_t k = 1; k <= rebuilt->max_k(); ++k) {
    if (k > update->delta.max_core_bound) {
      EXPECT_EQ(rebuilt->SliceShared(k), old_index->SliceShared(k)) << k;
    }
  }
}

TEST(PhcRebuildTest, MidTimelineDeltaReusesPrefixAndTailRows) {
  // A delta in the middle of the timeline: the dirty band is bounded on
  // both sides, so a suffix-maintained slice reuses prefix rows *and* the
  // rows past the delta's max time (the advance stops there).
  TemporalGraph dense = GenerateUniformRandom(18, 300, 12, 21);
  const VertexId p = dense.num_vertices(), q = p + 1;
  auto based = dense.AppendEdges(std::vector<RawTemporalEdge>{
      {p, 0, dense.RawTimestamp(1)}, {q, 1, dense.RawTimestamp(2)}});
  ASSERT_TRUE(based.ok());
  TemporalGraph base = std::move(based->graph);

  PhcBuildOptions build;
  auto old_index = PhcIndex::Build(base, base.FullRange(), build);
  ASSERT_TRUE(old_index.ok());
  const Timestamp mid = base.num_timestamps() / 2;
  auto update = base.AppendEdges(
      std::vector<RawTemporalEdge>{{p, q, base.RawTimestamp(mid)}});
  ASSERT_TRUE(update.ok());
  ASSERT_EQ(update->delta.TimeExtent(), (Window{mid, mid}));

  PhcRebuildStats stats;
  auto rebuilt = PhcIndex::Rebuild(*old_index, update->graph, update->delta,
                                   build, &stats);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_GT(stats.suffix_rebuilds, 0u);
  EXPECT_GT(stats.rows_reused, 0u);
  auto fresh =
      PhcIndex::Build(update->graph, update->graph.FullRange(), build);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(*rebuilt == *fresh);
}

TEST(PhcRebuildTest, EndpointConnectivityTightensDirtyBands) {
  // Two satellites, each wired to the dense core by exactly two early
  // edges, joined by a delta edge late in the timeline. The delta's core
  // bound is 3 (each endpoint's distinct degree), so the global rule
  // dirties k = 1..3 — but the k=2 slice is provably *unchanged*: a new
  // 2-core around the delta edge needs each endpoint's second distinct
  // neighbor inside the window, which for window starts past the early
  // wiring never happens before the old core times anyway. The
  // endpoint-connectivity oracle must prove that and shrink (or empty)
  // the k=2 band where the global bound could not.
  TemporalGraph dense = GenerateUniformRandom(18, 260, 12, 33);
  const VertexId p = dense.num_vertices(), q = p + 1;
  auto based = dense.AppendEdges(std::vector<RawTemporalEdge>{
      {p, 0, dense.RawTimestamp(2)},
      {p, 1, dense.RawTimestamp(2)},
      {q, 2, dense.RawTimestamp(3)},
      {q, 3, dense.RawTimestamp(3)}});
  ASSERT_TRUE(based.ok());
  TemporalGraph base = std::move(based->graph);

  auto update = base.AppendEdges(
      std::vector<RawTemporalEdge>{{p, q, base.RawTimestamp(8)}});
  ASSERT_TRUE(update.ok());
  ASSERT_TRUE(update->delta.timestamps_preserved);
  ASSERT_TRUE(update->delta.vertices_preserved);
  ASSERT_EQ(update->delta.TimeExtent(), (Window{8, 8}));
  ASSERT_EQ(update->delta.max_core_bound, 3u);

  PhcBuildOptions build;
  auto old_index = PhcIndex::Build(base, base.FullRange(), build);
  ASSERT_TRUE(old_index.ok());
  PhcRebuildStats stats;
  auto rebuilt = PhcIndex::Rebuild(*old_index, update->graph, update->delta,
                                   build, &stats);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_GE(stats.bands_tightened, 1u);
  // Tightening must never cost correctness: still bit-identical to a
  // from-scratch build on the new graph.
  auto fresh =
      PhcIndex::Build(update->graph, update->graph.FullRange(), build);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(*rebuilt == *fresh);
}

TEST(PhcRebuildTest, BoundaryTimestampAppendsMatchBuild) {
  // Sentinel-adjacent deltas: edges landing exactly on the first and last
  // compacted timestamps (the edge spans the time-offset table brackets
  // with its sentinel rows). Both must keep the reuse proof sound.
  TemporalGraph g = GenerateUniformRandom(16, 140, 12, 5);
  PhcRebuildStats stats;
  ExpectRebuildMatchesBuild(g, {{0, 1, g.RawTimestamp(1)}}, 0, &stats);
  EXPECT_TRUE(stats.reuse_eligible());
  ExpectRebuildMatchesBuild(
      g, {{2, 3, g.RawTimestamp(g.num_timestamps())}}, 0, &stats);
  EXPECT_TRUE(stats.reuse_eligible());
  // Both boundaries in one delta: the extent spans the whole timeline —
  // still bit-identical.
  ExpectRebuildMatchesBuild(
      g,
      {{0, 5, g.RawTimestamp(1)}, {1, 6, g.RawTimestamp(g.num_timestamps())}},
      0, &stats);
}

TEST(PhcRebuildTest, MultigraphParallelAppendMatchesBuild) {
  // A dedup-off multigraph: appended exact duplicates survive ingestion
  // and count in the delta, but they add no distinct neighbor — the core
  // bound must not move, slice reuse stays sound, and the rebuilt index
  // matches a from-scratch build on the multigraph.
  TemporalGraphBuilder builder;
  builder.SetDeduplicateExact(false);
  Rng rng(99);
  for (int i = 0; i < 120; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(10));
    VertexId v = static_cast<VertexId>(rng.NextBounded(10));
    if (u == v) continue;
    builder.AddEdge(u, v, 1 + rng.NextBounded(8));
  }
  builder.AddEdge(10, 0, 3);  // a pendant to append parallel edges onto
  auto built = builder.Build();
  ASSERT_TRUE(built.ok());
  TemporalGraph g = std::move(built).value();

  // Parallel duplicates of the pendant edge at an existing raw time: the
  // pendant's distinct degree stays 1.
  std::vector<RawTemporalEdge> dupes = {{10, 0, 3}, {0, 10, 3}};
  auto update = g.AppendEdges(dupes);
  ASSERT_TRUE(update.ok());
  ASSERT_EQ(update->delta.edges_appended, 2u);
  EXPECT_EQ(update->delta.max_core_bound, 1u);
  EXPECT_TRUE(update->delta.timestamps_preserved);

  PhcBuildOptions build;
  auto old_index = PhcIndex::Build(g, g.FullRange(), build);
  ASSERT_TRUE(old_index.ok());
  PhcRebuildStats stats;
  auto rebuilt = PhcIndex::Rebuild(*old_index, update->graph, update->delta,
                                   build, &stats);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_TRUE(stats.reuse_eligible());
  EXPECT_EQ(stats.clean_above_k, 1u);
  auto fresh =
      PhcIndex::Build(update->graph, update->graph.FullRange(), build);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(*rebuilt == *fresh);
  for (uint32_t k = 2; k <= rebuilt->max_k(); ++k) {
    EXPECT_EQ(rebuilt->SliceShared(k), old_index->SliceShared(k)) << k;
  }
}

TEST(PhcRebuildTest, MatchesBuildAcrossDeltaShapes) {
  TemporalGraph g = GenerateUniformRandom(16, 140, 12, 5);
  PhcRebuildStats stats;
  // New vertex (shape change) — full rebuild, still identical.
  ExpectRebuildMatchesBuild(
      g, {{0, g.num_vertices(), g.RawTimestamp(2)}}, 0, &stats);
  EXPECT_FALSE(stats.reuse_eligible());
  // In-span append over existing vertices and times — eligible.
  ExpectRebuildMatchesBuild(
      g, {{0, 1, g.RawTimestamp(5)}, {2, 3, g.RawTimestamp(5)}}, 0, &stats);
  EXPECT_TRUE(stats.reuse_eligible());
  // Capped index: rebuild honors the cap exactly as Build does.
  ExpectRebuildMatchesBuild(
      g, {{0, 1, g.RawTimestamp(5)}, {4, 5, g.RawTimestamp(7)}}, 2, &stats);
  // A dense burst that raises kmax at one timestamp — dirty slices grow
  // past the old index's max_k and get built fresh.
  std::vector<RawTemporalEdge> burst;
  for (VertexId u = 0; u < 10; ++u) {
    for (VertexId v = u + 1; v < 10; ++v) {
      burst.push_back({u, v, g.RawTimestamp(4)});
    }
  }
  ExpectRebuildMatchesBuild(g, burst, 0, &stats);
}

}  // namespace
}  // namespace tkc
