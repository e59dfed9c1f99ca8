#include "e2ebench/workload.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>

namespace tkc::e2e {

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kColdMiss:
      return "cold_miss";
    case WorkloadKind::kHotRepeat:
      return "hot_repeat";
    case WorkloadKind::kUpdateStream:
      return "update_stream";
  }
  return "?";
}

bool ParseWorkload(std::string_view name, WorkloadKind* kind) {
  for (WorkloadKind k : {WorkloadKind::kColdMiss, WorkloadKind::kHotRepeat,
                         WorkloadKind::kUpdateStream}) {
    if (name == WorkloadName(k)) {
      *kind = k;
      return true;
    }
  }
  return false;
}

SyntheticSpec GraphSpecFor(WorkloadKind kind) {
  SyntheticSpec spec;
  spec.burstiness = 0.3;
  spec.seed = 42;
  if (kind == WorkloadKind::kUpdateStream) {
    spec.name = "update";
    spec.num_vertices = 120;
    spec.num_edges = 2600;
    spec.num_timestamps = 48;
  } else {
    spec.name = "serve";
    spec.num_vertices = 200;
    spec.num_edges = 8000;
    spec.num_timestamps = 96;
  }
  return spec;
}

Query DrawUniformQuery(Rng* rng, uint32_t kmax, Timestamp tmax) {
  const uint32_t max_len = std::max<uint32_t>(
      1, static_cast<uint32_t>(std::floor(0.4 * static_cast<double>(tmax))));
  Query q;
  q.k = static_cast<uint32_t>(rng->NextInRange(2, std::max<uint32_t>(2, kmax)));
  const auto len = static_cast<Timestamp>(rng->NextInRange(1, max_len));
  q.range.start = static_cast<Timestamp>(rng->NextInRange(1, tmax - len + 1));
  q.range.end = q.range.start + len - 1;
  return q;
}

std::vector<Query> DistinctQueries(uint32_t kmax, Timestamp tmax,
                                   size_t count, uint64_t seed) {
  Rng rng(seed);
  std::set<std::tuple<uint32_t, Timestamp, Timestamp>> seen;
  std::vector<Query> out;
  out.reserve(count);
  // Rejection sampling; a long run of consecutive repeats means the space
  // is (nearly) exhausted, so stop rather than spin.
  for (size_t misses = 0; out.size() < count && misses < 10000;) {
    const Query q = DrawUniformQuery(&rng, kmax, tmax);
    if (seen.emplace(q.k, q.range.start, q.range.end).second) {
      out.push_back(q);
      misses = 0;
    } else {
      ++misses;
    }
  }
  return out;
}

ZipfSampler::ZipfSampler(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Sample(Rng* rng) const {
  const double u = rng->NextDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

UpdateStream MakeUpdateStream(const TemporalGraph& g, size_t num_batches,
                              size_t edges_per_batch,
                              double new_timestamp_prob, uint64_t seed) {
  Rng rng(seed);
  UpdateStream stream;
  const VertexId n = g.num_vertices();
  uint64_t last_raw = g.RawTimestamp(g.num_timestamps());
  for (size_t b = 0; b < num_batches; ++b) {
    if (rng.NextBool(new_timestamp_prob)) {
      ++last_raw;
      ++stream.timeline_extending;
    }
    std::vector<RawTemporalEdge> batch(edges_per_batch);
    for (RawTemporalEdge& e : batch) {
      e.u = static_cast<VertexId>(rng.NextBounded(n));
      do {
        e.v = static_cast<VertexId>(rng.NextBounded(n));
      } while (e.v == e.u);
      e.raw_time = last_raw;
    }
    stream.batches.push_back(std::move(batch));
  }
  return stream;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

constexpr double kMinMs = 1e-3;
constexpr double kGrowth = 1.001;
const double kLogGrowth = std::log(kGrowth);
const size_t kBuckets =
    static_cast<size_t>(std::ceil(std::log(1e6 / kMinMs) / kLogGrowth)) + 1;

// 1-based nearest rank of the p-quantile among n samples.
uint64_t NearestRank(double p, uint64_t n) {
  const auto rank = static_cast<uint64_t>(
      std::ceil(p * static_cast<double>(n) - 1e-9));
  return std::clamp<uint64_t>(rank, 1, n);
}

}  // namespace

LatencyHistogram::LatencyHistogram() : counts_(kBuckets, 0) {}

void LatencyHistogram::Add(double ms) {
  size_t b = 0;
  if (ms > kMinMs) {
    b = std::min(kBuckets - 1,
                 static_cast<size_t>(std::log(ms / kMinMs) / kLogGrowth));
  }
  ++counts_[b];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  count_ += other.count_;
}

double LatencyHistogram::Quantile(double p) const {
  if (count_ == 0) return 0;
  const uint64_t rank = NearestRank(p, count_);
  uint64_t below = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    if (below + counts_[b] >= rank) {
      const double position = (static_cast<double>(rank - below) - 0.5) /
                              static_cast<double>(counts_[b]);
      return kMinMs * std::exp((static_cast<double>(b) + position) *
                               kLogGrowth);
    }
    below += counts_[b];
  }
  return 0;  // unreachable: the counts sum to count_
}

bool LatencyHistogram::TailQuantile(double p, double* value) const {
  if (count_ == 0 || count_ - NearestRank(p, count_) < 10) return false;
  *value = Quantile(p);
  return true;
}

}  // namespace tkc::e2e
