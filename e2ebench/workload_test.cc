#include "e2ebench/workload.h"

#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

namespace tkc::e2e {
namespace {

TEST(LatencyHistogramTest, TailQuantileNeedsTenSamplesBeyond) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Add(i);
  double p99 = 0;
  // 1000 samples: rank 990 holds p99 and exactly 10 lie beyond it.
  ASSERT_TRUE(h.TailQuantile(0.99, &p99));
  EXPECT_NEAR(p99, 990, 990 * 0.001);
  LatencyHistogram short_by_one;
  for (int i = 1; i <= 999; ++i) short_by_one.Add(i);
  // 999 samples: rank 990 again, only 9 beyond.
  EXPECT_FALSE(short_by_one.TailQuantile(0.99, &p99));

  LatencyHistogram hundred;
  for (int i = 1; i <= 100; ++i) hundred.Add(i);
  double p90 = 0;
  ASSERT_TRUE(hundred.TailQuantile(0.90, &p90));  // rank 90, 10 beyond
  EXPECT_NEAR(p90, 90, 90 * 0.001);
  hundred.Add(0);  // 101 samples: rank 91, 10 beyond
  EXPECT_TRUE(hundred.TailQuantile(0.90, &p90));
  LatencyHistogram ninety_nine;
  for (int i = 1; i <= 99; ++i) ninety_nine.Add(i);
  EXPECT_FALSE(ninety_nine.TailQuantile(0.90, &p90));  // 9 beyond
  EXPECT_FALSE(LatencyHistogram().TailQuantile(0.5, &p90));
}

TEST(LatencyHistogramTest, QuantilesWithinBucketPrecision) {
  LatencyHistogram a, b;
  for (int i = 1; i <= 500; ++i) a.Add(0.05 * i);  // 0.05 .. 25 ms
  for (int i = 501; i <= 1000; ++i) b.Add(0.05 * i);
  a.Merge(b);
  EXPECT_EQ(a.count(), 1000u);
  EXPECT_NEAR(a.Quantile(0.5), 25.0, 25.0 * 0.001);
  EXPECT_NEAR(a.Quantile(0.9), 45.0, 45.0 * 0.001);
  EXPECT_EQ(LatencyHistogram().Quantile(0.5), 0);
}

TEST(MedianTest, IgnoresOrder) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(DistinctQueriesTest, EveryQueryDistinctAndInsideTheMix) {
  const uint32_t kmax = 12;
  const Timestamp tmax = 96;
  const std::vector<Query> queries = DistinctQueries(kmax, tmax, 20000, 7);
  ASSERT_EQ(queries.size(), 20000u);
  std::set<std::tuple<uint32_t, Timestamp, Timestamp>> seen;
  for (const Query& q : queries) {
    EXPECT_TRUE(seen.emplace(q.k, q.range.start, q.range.end).second);
    EXPECT_GE(q.k, 2u);
    EXPECT_LE(q.k, kmax);
    EXPECT_GE(q.range.start, 1u);
    EXPECT_LE(q.range.end, tmax);
    EXPECT_LE(q.range.Length(), 38u);  // 40% of tmax
  }
}

TEST(DistinctQueriesTest, StopsWhenTheSpaceRunsOut) {
  // k in {2}, tmax 3 -> length 1 only: three distinct queries exist.
  EXPECT_EQ(DistinctQueries(2, 3, 100, 1).size(), 3u);
}

bool SameQueries(const std::vector<Query>& a, const std::vector<Query>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].k != b[i].k || a[i].range.start != b[i].range.start ||
        a[i].range.end != b[i].range.end) {
      return false;
    }
  }
  return true;
}

bool SameStream(const UpdateStream& a, const UpdateStream& b) {
  if (a.batches.size() != b.batches.size() ||
      a.timeline_extending != b.timeline_extending) {
    return false;
  }
  for (size_t i = 0; i < a.batches.size(); ++i) {
    if (a.batches[i].size() != b.batches[i].size()) return false;
    for (size_t j = 0; j < a.batches[i].size(); ++j) {
      const RawTemporalEdge& x = a.batches[i][j];
      const RawTemporalEdge& y = b.batches[i][j];
      if (x.u != y.u || x.v != y.v || x.raw_time != y.raw_time) return false;
    }
  }
  return true;
}

TEST(SeedDeterminismTest, SameSeedSameInputs) {
  for (WorkloadKind kind :
       {WorkloadKind::kColdMiss, WorkloadKind::kUpdateStream}) {
    const TemporalGraph a = GenerateSynthetic(GraphSpecFor(kind));
    const TemporalGraph b = GenerateSynthetic(GraphSpecFor(kind));
    ASSERT_EQ(a.num_edges(), b.num_edges());
    for (EdgeId e = 0; e < a.num_edges(); ++e) {
      ASSERT_TRUE(a.edge(e) == b.edge(e));
    }
  }
  EXPECT_TRUE(SameQueries(DistinctQueries(10, 96, 500, 5),
                          DistinctQueries(10, 96, 500, 5)));
  EXPECT_FALSE(SameQueries(DistinctQueries(10, 96, 500, 5),
                           DistinctQueries(10, 96, 500, 6)));

  const TemporalGraph g =
      GenerateSynthetic(GraphSpecFor(WorkloadKind::kUpdateStream));
  EXPECT_TRUE(SameStream(MakeUpdateStream(g, 50, 8, 0.1, 9),
                         MakeUpdateStream(g, 50, 8, 0.1, 9)));
  EXPECT_FALSE(SameStream(MakeUpdateStream(g, 50, 8, 0.1, 9),
                          MakeUpdateStream(g, 50, 8, 0.1, 10)));

  const ZipfSampler zipf(100, 1.0);
  Rng r1(3), r2(3);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(zipf.Sample(&r1), zipf.Sample(&r2));
}

TEST(UpdateStreamTest, MostBatchesStayOnTheLastTimestamp) {
  const TemporalGraph g =
      GenerateSynthetic(GraphSpecFor(WorkloadKind::kUpdateStream));
  const UpdateStream stream = MakeUpdateStream(g, 200, 8, 0.1, 4);
  ASSERT_EQ(stream.batches.size(), 200u);
  EXPECT_GT(stream.timeline_extending, 5u);
  EXPECT_LT(stream.timeline_extending, 40u);
  uint64_t last = g.RawTimestamp(g.num_timestamps());
  size_t opened = 0;
  for (const auto& batch : stream.batches) {
    ASSERT_EQ(batch.size(), 8u);
    if (batch[0].raw_time == last + 1) {
      ++opened;
      last = batch[0].raw_time;
    }
    for (const RawTemporalEdge& e : batch) {
      EXPECT_EQ(e.raw_time, last);
      EXPECT_NE(e.u, e.v);
      EXPECT_LT(e.u, g.num_vertices());
      EXPECT_LT(e.v, g.num_vertices());
    }
  }
  EXPECT_EQ(opened, stream.timeline_extending);
}

TEST(ZipfSamplerTest, RankZeroIsMostFrequent) {
  const ZipfSampler zipf(256, 1.0);
  Rng rng(11);
  std::vector<int> hits(256, 0);
  for (int i = 0; i < 20000; ++i) ++hits[zipf.Sample(&rng)];
  EXPECT_GT(hits[0], hits[1]);
  EXPECT_GT(hits[1], hits[10]);
  // P(rank 0) = 1 / H(256) ~ 0.16.
  EXPECT_NEAR(hits[0] / 20000.0, 0.163, 0.02);
}

}  // namespace
}  // namespace tkc::e2e
