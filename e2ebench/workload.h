#ifndef TKC_E2EBENCH_WORKLOAD_H_
#define TKC_E2EBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "datasets/generators.h"
#include "graph/temporal_graph.h"
#include "util/rng.h"
#include "workload/query_workload.h"

/// \file workload.h
/// Input generation for the end-to-end serving benchmark: the graph spec,
/// and — as pure functions of the workload seed — the query streams, the
/// hot sets and the update stream. The serving stack only ever receives
/// what these functions produce.

namespace tkc::e2e {

enum class WorkloadKind { kColdMiss, kHotRepeat, kUpdateStream };

/// "cold_miss" / "hot_repeat" / "update_stream".
const char* WorkloadName(WorkloadKind kind);
/// Inverse of WorkloadName; false on an unknown name.
bool ParseWorkload(std::string_view name, WorkloadKind* kind);

/// The graph a workload serves, fixed per workload (generator seed 42, the
/// repo benches' default): cold_miss and hot_repeat use the serve graph
/// (200 vertices, 8000 raw edges, 96 timestamps); update_stream uses a
/// smaller graph (120 / 2600 / 48) so one run holds dozens of swaps. The
/// workload seed drives the traffic on it, not the graph.
SyntheticSpec GraphSpecFor(WorkloadKind kind);

/// One uniform draw of the traffic mix: k uniform in [2, kmax], range
/// length uniform in [1, max(1, 40% of tmax)], start uniform among the
/// positions where that length fits.
Query DrawUniformQuery(Rng* rng, uint32_t kmax, Timestamp tmax);

/// `count` pairwise-distinct uniform draws (fewer when the (k, range) space
/// runs out first), in draw order.
std::vector<Query> DistinctQueries(uint32_t kmax, Timestamp tmax,
                                   size_t count, uint64_t seed);

/// Zipf(s) over ranks 0..n-1: P(rank r) proportional to 1 / (r + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// The pre-generated write stream of update_stream. Batch i carries
/// `edges_per_batch` edges between distinct existing vertices, all at one
/// raw time: the current last raw timestamp (timeline-preserving, the
/// delta-aware Rebuild path) or, with probability `new_timestamp_prob`, a
/// fresh timestamp one past it (timeline-extending, a full rebuild).
struct UpdateStream {
  std::vector<std::vector<RawTemporalEdge>> batches;
  size_t timeline_extending = 0;  ///< batches that open a new timestamp
};
UpdateStream MakeUpdateStream(const TemporalGraph& g, size_t num_batches,
                              size_t edges_per_batch,
                              double new_timestamp_prob, uint64_t seed);

/// Median of `samples` (mean of the middle pair for even sizes); 0 when
/// empty.
double Median(std::vector<double> samples);

/// Latencies in log-spaced buckets 0.1% wide, from 1 us to about 1000 s, so
/// memory stays constant however many samples a run records. Quantiles are
/// nearest-rank: the bucket holding the rank-th smallest sample, with the
/// value interpolated by the rank's position inside that bucket.
class LatencyHistogram {
 public:
  LatencyHistogram();

  void Add(double ms);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }

  /// The p-quantile (0 < p < 1); 0 when empty.
  double Quantile(double p) const;

  /// Quantile(p), reported only when at least ten samples lie beyond its
  /// rank: false (and *value untouched) when the sample cannot support it.
  bool TailQuantile(double p, double* value) const;

 private:
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
};

}  // namespace tkc::e2e

#endif  // TKC_E2EBENCH_WORKLOAD_H_
