#include "vct/phc_index.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/core_decomposition.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "vct/vct_builder.h"

namespace tkc {

namespace {

/// The slice's core-emergence table — min over u of CT_ts(u) for every
/// start ts of its range — in one linear pass. A row (u, s, c) holds for
/// starts [s, s'), s' being u's next row start (range.end + 1 after its
/// last row). Start ts takes the minimum over rows with s' > ts: the rows
/// live at ts give the true minimum, and a row starting after ts cannot
/// undercut it, because core times are non-decreasing in the start. So
/// each row's value lands in the bucket of its last start s' - 1, and a
/// suffix-min over the buckets is the table. Needs only row starts inside
/// the range and strictly increasing per vertex.
std::vector<Timestamp> EmergenceOf(const VertexCoreTimeIndex& slice) {
  const Window range = slice.range();
  std::vector<Timestamp> table(range.Length(), kInfTime);
  for (VertexId u = 0; u < slice.num_vertices(); ++u) {
    const std::span<const VctEntry> rows = slice.EntriesOf(u);
    for (size_t i = 0; i < rows.size(); ++i) {
      const Timestamp last =
          i + 1 < rows.size() ? rows[i + 1].start - 1 : range.end;
      TKC_DCHECK(rows[i].start >= range.start && last <= range.end);
      Timestamp& bucket = table[last - range.start];
      bucket = std::min(bucket, rows[i].core_time);
    }
  }
  for (size_t rel = table.size(); rel > 1; --rel) {
    table[rel - 2] = std::min(table[rel - 2], table[rel - 1]);
  }
  return table;
}

/// The per-slice endpoint-connectivity proof behind band tightening: for a
/// start ts, E(ts) = the earliest window end te at which *any* delta edge
/// can sit inside the k-core of the new graph's window [ts, te]. An
/// appended edge (a, b, t) inside that core needs t in [ts, te] and both
/// endpoints at windowed distinct-neighbor degree >= k — each endpoint's
/// earliest qualifying end A(w, ts) is read off one pass over w's
/// time-sorted adjacency slice. Appends only grow k-cores (core times only
/// decrease), and a window whose k-core changed must contain a delta edge
/// with both endpoints in the new core, so a row (u, ts) with old value c
/// is provably pinned whenever c <= E(ts). E is non-decreasing in ts
/// (every term is), which is what lets a per-row check stand in for a
/// per-(vertex, start) sweep.
///
/// Evaluations are memoized per distinct start and budgeted: past
/// kScanBudget adjacency entries, further starts conservatively report
/// "impact possible immediately" (E = 0), degrading to the untightened
/// band instead of burning rebuild time on a huge delta.
class DeltaImpactOracle {
 public:
  DeltaImpactOracle(const TemporalGraph& g, const EdgeDelta& delta)
      : g_(g),
        delta_(delta),
        range_end_(g.FullRange().end),
        stamp_(g.num_vertices(), 0),
        endpoint_end_(g.num_vertices(), 0),
        endpoint_stamp_(g.num_vertices(), 0) {}

  /// Retargets the oracle at slice `k`, dropping the per-start memo (the
  /// stamp arrays survive — epochs only ever grow). One oracle thus serves
  /// every dirty slice of a Rebuild without reallocating.
  void Reset(uint32_t k) {
    k_ = k;
    memo_.clear();
    ++epoch_;
  }

  /// E(ts), memoized. 0 means "cannot prune anything at this start"
  /// (budget exhausted); kInfTime means no delta edge can affect any
  /// window starting at ts.
  Timestamp EarliestImpactEnd(Timestamp ts) {
    auto [it, inserted] = memo_.try_emplace(ts, 0);
    if (!inserted) return it->second;
    if (budget_ <= 0) return it->second = 0;
    Timestamp best = kInfTime;
    ++epoch_;
    // Edges are sorted by time: once an edge's own time reaches the best
    // end found so far, no later edge can improve it (its te >= t).
    for (const TemporalEdge& e : delta_.effective_edges) {
      if (e.t < ts) continue;
      if (e.t >= best) break;
      const Timestamp need = std::max(
          e.t, std::max(EndpointEnd(e.u, ts), EndpointEnd(e.v, ts)));
      best = std::min(best, need);
      if (budget_ <= 0) return it->second = 0;
    }
    return it->second = best;
  }

 private:
  /// A(w, ts): the time at which w's k-th distinct neighbor (in the new
  /// graph) first appears within [ts, range end], kInfTime when fewer than
  /// k distinct neighbors exist there. Memoized per (ts) via epoch stamps.
  Timestamp EndpointEnd(VertexId w, Timestamp ts) {
    if (endpoint_stamp_[w] == epoch_) return endpoint_end_[w];
    endpoint_stamp_[w] = epoch_;
    ++scan_id_;  // fresh distinct-neighbor marks for this scan alone
    uint32_t distinct = 0;
    Timestamp end = kInfTime;
    const auto window = g_.NeighborsInWindow(w, Window{ts, range_end_});
    budget_ -= static_cast<int64_t>(window.size());
    for (const AdjEntry& a : window) {  // sorted by (time, neighbor)
      if (stamp_[a.neighbor] == scan_id_) continue;
      stamp_[a.neighbor] = scan_id_;
      if (++distinct >= k_) {
        end = a.time;
        break;
      }
    }
    return endpoint_end_[w] = end;
  }

  static constexpr int64_t kScanBudget = 1 << 22;  // adjacency entries

  const TemporalGraph& g_;
  const EdgeDelta& delta_;
  uint32_t k_ = 0;
  const Timestamp range_end_;
  int64_t budget_ = kScanBudget;
  uint32_t epoch_ = 0;
  uint32_t scan_id_ = 0;
  std::vector<uint32_t> stamp_;          ///< distinct-neighbor marks
  std::vector<Timestamp> endpoint_end_;  ///< A(w, ts) memo for this epoch
  std::vector<uint32_t> endpoint_stamp_;
  std::unordered_map<Timestamp, Timestamp> memo_;
};

/// Earliest start time at which slice `k` of the old index could disagree
/// with the new graph's slice, for an *eligible* append delta (timeline and
/// vertex pool preserved). kInfTime means no (vertex, start) pair can
/// change — the whole slice is provably clean even though k is at or below
/// the delta's core bound.
///
/// A changed core time CT_ts(u) needs a delta edge inside some window
/// starting at ts, so ts <= delta.max_time; and both its old and new value
/// lie at or above delta.min_time (windows ending earlier contain no delta
/// edge, so values below min_time are pinned). Per vertex the old values
/// strictly increase across rows, making the dirty starts a band
/// [first row reaching min_time, max_time]. A vertex with no old rows was
/// never in a k-core of any base window; it can gain membership only by
/// entering the new graph's full-range k-core, and any gain shows at the
/// first start (k-cores grow with the window) — hence the core-number
/// check decides between "clean" and "dirty from the very first start".
///
/// On top of that global bound, `oracle` (when non-null) prunes rows the
/// delta-endpoint connectivity proof pins: a row whose old value c
/// satisfies c <= E(start) cannot change, because every window [start,
/// te < c] provably contains no delta edge whose endpoints both reach
/// degree k. Old values strictly increase per vertex while E is
/// non-decreasing, so the first surviving row is the vertex's first dirty
/// start. Sets `*tightened` when the pruning raised the slice's band start
/// past the untightened bound (or emptied the band).
Timestamp FirstDirtyStart(const VertexCoreTimeIndex& old_slice,
                          const EdgeDelta& delta,
                          const std::vector<uint32_t>& new_core_numbers,
                          uint32_t k, Window range, DeltaImpactOracle* oracle,
                          bool* tightened) {
  Timestamp first = kInfTime;
  Timestamp untightened = kInfTime;
  for (VertexId u = 0; u < old_slice.num_vertices(); ++u) {
    const std::span<const VctEntry> rows = old_slice.EntriesOf(u);
    if (rows.empty()) {
      if (new_core_numbers[u] >= k) {
        // A first-time member's new row appears at the very first start;
        // no endpoint proof can pin it.
        if (tightened != nullptr) *tightened = false;
        return range.start;
      }
      continue;
    }
    auto it = std::lower_bound(
        rows.begin(), rows.end(), delta.min_time,
        [](const VctEntry& e, Timestamp t) { return e.core_time < t; });
    if (it == rows.end()) continue;  // every old value is below min_time
    if (it->start > delta.max_time) continue;  // band opens past the delta
    untightened = std::min(untightened, it->start);
    for (; it != rows.end() && it->start <= delta.max_time; ++it) {
      if (it->start >= first) break;  // a later row cannot lower the band
      if (oracle == nullptr ||
          it->core_time > oracle->EarliestImpactEnd(it->start)) {
        first = std::min(first, it->start);
        break;
      }
    }
    if (first == range.start) break;  // cannot get lower
  }
  if (tightened != nullptr) *tightened = first != untightened;
  return first;
}

}  // namespace

PhcIndex::SliceData::SliceData(VertexCoreTimeIndex rows)
    : vct(std::move(rows)), emergence(EmergenceOf(vct)) {}

StatusOr<PhcIndex> PhcIndex::Build(const TemporalGraph& g, Window range,
                                   uint32_t max_k) {
  PhcBuildOptions options;
  options.max_k = max_k;
  options.pool = &ThreadPool::Shared();
  return Build(g, range, options);
}

StatusOr<PhcIndex> PhcIndex::Build(const TemporalGraph& g, Window range,
                                   const PhcBuildOptions& options) {
  if (range.start < 1 || range.start > range.end ||
      range.end > g.num_timestamps()) {
    return Status::InvalidArgument(
        "query range must satisfy 1 <= Ts <= Te <= num_timestamps");
  }
  PhcIndex index;
  index.range_ = range;
  const uint32_t span_kmax = DecomposeCores(g, range).kmax;
  uint32_t kmax = span_kmax;
  if (options.max_k > 0) kmax = std::min(kmax, options.max_k);
  // Complete iff every k with a non-empty core got a slice — the cap was
  // absent or at least as large as the span's kmax.
  index.complete_ = options.max_k == 0 || span_kmax <= options.max_k;
  // Slice k lands at index k-1 no matter which worker computes it or when
  // it finishes, so the result is bit-identical to a serial build. Each
  // build is a pure function of (g, k, range); the arena only recycles
  // scratch allocations. The pool is also handed to each slice build: fanned
  // slice workers degrade it to an inline loop (nested ParallelFor), but
  // the serial path below — notably the kmax == 1 case a snapshot rebuild
  // on a dedicated thread can hit — parallelizes the slice's bootstrap.
  index.slices_.resize(kmax);
  auto build_slice = [&](uint32_t k, VctBuildArena* arena, ThreadPool* pool) {
    index.slices_[k - 1] = std::make_shared<const SliceData>(
        BuildVctAndEcs(g, k, range, arena, pool).vct);
  };
  ThreadPool* pool = options.pool;
  if (pool == nullptr || pool->num_threads() <= 1 || kmax <= 1) {
    VctBuildArena arena;
    for (uint32_t k = 1; k <= kmax; ++k) build_slice(k, &arena, pool);
  } else {
    std::vector<VctBuildArena> arenas(pool->num_threads());
    pool->ParallelFor(kmax, [&](size_t i, int worker) {
      build_slice(static_cast<uint32_t>(i) + 1, &arenas[worker], pool);
    });
  }
  return index;
}

StatusOr<PhcIndex> PhcIndex::Rebuild(const PhcIndex& old_index,
                                     const TemporalGraph& g,
                                     const EdgeDelta& delta,
                                     const PhcBuildOptions& options,
                                     PhcRebuildStats* stats) {
  const Window range = g.FullRange();
  if (!range.Valid()) {
    return Status::InvalidArgument("graph has no timestamps to index");
  }
  PhcRebuildStats local;

  // Reuse preconditions: the new graph's compacted timeline and vertex
  // pool must be the base graph's (otherwise old slices are expressed in
  // stale coordinates / shapes), and the old index must cover exactly this
  // range over this vertex count. delta.vertices_preserved ties the new
  // graph to the base graph; the slice check ties the old index to both.
  const bool eligible =
      delta.timestamps_preserved && delta.vertices_preserved &&
      old_index.range() == range && old_index.max_k() >= 1 &&
      old_index.Slice(1).num_vertices() == g.num_vertices();
  if (eligible) {
    // Every k-core with k > max_core_bound is unchanged by the delta (no
    // delta edge can join it), so those slices are provably identical. An
    // empty delta leaves the whole graph — hence every slice — unchanged.
    local.clean_above_k = delta.empty() ? 0 : delta.max_core_bound;
  }

  // Empty-delta fast path: the graph is bit-identical to the base, so a
  // complete old index that also satisfies the requested cap *is* the
  // result — skip even the core decomposition. (A capped/incomplete old
  // index falls through: the general path still reuses all its slices and
  // recomputes only kmax/completeness.)
  if (eligible && delta.empty() && old_index.complete() &&
      (options.max_k == 0 || old_index.max_k() <= options.max_k)) {
    local.slices_reused = old_index.max_k();
    local.rows_reused = local.rows_total = old_index.size();
    if (stats != nullptr) *stats = local;
    return old_index;  // cheap copy: slices are shared
  }

  PhcIndex index;
  index.range_ = range;
  const CoreDecompositionResult cores = DecomposeCores(g, range);
  const uint32_t span_kmax = cores.kmax;
  uint32_t kmax = span_kmax;
  if (options.max_k > 0) kmax = std::min(kmax, options.max_k);
  index.complete_ = options.max_k == 0 || span_kmax <= options.max_k;
  index.slices_.resize(kmax);

  // Classify every slice: reuse whole (by pointer), maintain partially
  // (recompute only the dirty start band), or rebuild from scratch. All
  // decisions read the old index and the delta only, so they are
  // deterministic at any thread count.
  struct SuffixTask {
    uint32_t k = 0;
    Timestamp first_dirty = 0;  // first recomputed start
  };
  std::vector<uint32_t> full;
  std::vector<SuffixTask> partial;
  full.reserve(kmax);
  // The endpoint-connectivity oracle is only as good as the delta's edge
  // list: a delta assembled by hand (or from an older serialization) may
  // carry counts without edges, in which case tightening silently stands
  // down to the global band.
  const bool tighten =
      local.reuse_eligible() &&
      delta.effective_edges.size() == delta.edges_appended &&
      !delta.effective_edges.empty();
  std::optional<DeltaImpactOracle> oracle;
  if (tighten) oracle.emplace(g, delta);
  for (uint32_t k = 1; k <= kmax; ++k) {
    if (!local.reuse_eligible() || k > old_index.max_k()) {
      full.push_back(k);
      continue;
    }
    if (k > local.clean_above_k) {
      index.slices_[k - 1] = old_index.slices_[k - 1];  // shared, by pointer
      ++local.slices_reused;
      local.rows_reused += old_index.slices_[k - 1]->vct.size();
      continue;
    }
    // Dirty by the core bound — but the delta's time extent may still pin
    // most (or all) of the slice's rows.
    if (oracle.has_value()) oracle->Reset(k);
    bool tightened = false;
    const Timestamp first_dirty = FirstDirtyStart(
        old_index.Slice(k), delta, cores.core_numbers, k, range,
        oracle.has_value() ? &*oracle : nullptr, &tightened);
    if (tightened) ++local.bands_tightened;
    if (first_dirty == kInfTime) {
      index.slices_[k - 1] = old_index.slices_[k - 1];  // provably clean
      ++local.slices_reused;
      local.rows_reused += old_index.slices_[k - 1]->vct.size();
    } else if (first_dirty == range.start && delta.max_time == range.end) {
      full.push_back(k);  // the dirty band is the whole slice
    } else {
      partial.push_back(SuffixTask{k, first_dirty});
    }
  }
  local.slices_rebuilt = static_cast<uint32_t>(full.size());
  local.suffix_rebuilds = static_cast<uint32_t>(partial.size());

  // Rebuild the dirty slices exactly as Build would — same builder, same
  // arena discipline, slot k-1 regardless of worker/completion order —
  // and splice the partial ones: recompute starts
  // [first_dirty, delta.max_time] over the suffix window, carry the
  // prefix/tail rows from the old slice. Either way the new slice derives
  // its emergence table afresh. Per-task row counts land in fixed slots so
  // the reuse accounting is deterministic too.
  std::vector<uint64_t> partial_rows(partial.size(), 0);
  auto run_task = [&](size_t i, VctBuildArena* arena, ThreadPool* pool) {
    if (i < full.size()) {
      const uint32_t k = full[i];
      index.slices_[k - 1] = std::make_shared<const SliceData>(
          BuildVctAndEcs(g, k, range, arena, pool).vct);
      return;
    }
    const SuffixTask& task = partial[i - full.size()];
    const Window suffix{task.first_dirty, range.end};
    const VertexCoreTimeIndex band =
        BuildVctSuffix(g, task.k, suffix, delta.max_time, arena, pool);
    index.slices_[task.k - 1] = std::make_shared<const SliceData>(
        StitchCoreTimeSuffix(old_index.Slice(task.k), band, task.first_dirty,
                             delta.max_time, &partial_rows[i - full.size()]));
  };
  const size_t num_tasks = full.size() + partial.size();
  ThreadPool* pool = options.pool;
  if (pool == nullptr || pool->num_threads() <= 1 || num_tasks <= 1) {
    VctBuildArena arena;
    for (size_t i = 0; i < num_tasks; ++i) run_task(i, &arena, pool);
  } else {
    std::vector<VctBuildArena> arenas(pool->num_threads());
    pool->ParallelFor(num_tasks, [&](size_t i, int worker) {
      run_task(i, &arenas[worker], pool);
    });
  }
  for (uint64_t rows : partial_rows) local.rows_reused += rows;
  for (const auto& slice : index.slices_) local.rows_total += slice->vct.size();
  if (stats != nullptr) *stats = local;
  return index;
}

StatusOr<PhcIndex> PhcIndex::FromSlices(
    Window range, bool complete, std::vector<VertexCoreTimeIndex> slices) {
  if (!range.Valid()) {
    return Status::InvalidArgument("PhcIndex range is invalid");
  }
  for (size_t i = 0; i < slices.size(); ++i) {
    if (slices[i].range() != range) {
      return Status::InvalidArgument("slice " + std::to_string(i + 1) +
                                     " covers a different range");
    }
    if (slices[i].num_vertices() != slices[0].num_vertices()) {
      return Status::InvalidArgument("slice " + std::to_string(i + 1) +
                                     " has a different vertex count");
    }
  }
  PhcIndex index;
  index.range_ = range;
  index.complete_ = complete;
  index.slices_.reserve(slices.size());
  for (VertexCoreTimeIndex& slice : slices) {
    index.slices_.push_back(
        std::make_shared<const SliceData>(std::move(slice)));
  }
  return index;
}

const VertexCoreTimeIndex& PhcIndex::Slice(uint32_t k) const {
  TKC_CHECK(k >= 1 && k <= slices_.size());
  return slices_[k - 1]->vct;
}

std::shared_ptr<const VertexCoreTimeIndex> PhcIndex::SliceShared(
    uint32_t k) const {
  TKC_CHECK(k >= 1 && k <= slices_.size());
  // Aliases the slice's owner: identity still means "the same slice".
  return {slices_[k - 1], &slices_[k - 1]->vct};
}

Timestamp PhcIndex::CoreTimeAt(VertexId u, Timestamp ts, uint32_t k) const {
  if (k == 0 || k > slices_.size()) return kInfTime;
  return slices_[k - 1]->vct.CoreTimeAt(u, ts);
}

bool PhcIndex::VertexInCore(VertexId u, Window window, uint32_t k) const {
  TKC_DCHECK(window.ContainedIn(range_));
  return CoreTimeAt(u, window.start, k) <= window.end;
}

uint32_t PhcIndex::HistoricalCoreNumber(VertexId u, Window window) const {
  // Membership is monotone: in the k-core implies in the (k-1)-core.
  uint32_t lo = 0, hi = max_k();
  while (lo < hi) {
    uint32_t mid = (lo + hi + 1) / 2;
    if (VertexInCore(u, window, mid)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

bool PhcIndex::MayContainCore(uint32_t k, Window window) const {
  if (k == 0 || !window.Valid() || !window.ContainedIn(range_)) return true;
  // Beyond every built slice: provably empty only for a complete index.
  if (k > max_k()) return !complete_;
  return slices_[k - 1]->emergence[window.start - range_.start] <= window.end;
}

std::span<const Timestamp> PhcIndex::EmergenceTable(uint32_t k) const {
  if (k == 0 || k > slices_.size()) return {};
  return slices_[k - 1]->emergence;
}

uint64_t PhcIndex::size() const {
  uint64_t total = 0;
  for (const auto& slice : slices_) total += slice->vct.size();
  return total;
}

bool operator==(const PhcIndex& a, const PhcIndex& b) {
  if (a.range() != b.range() || a.complete() != b.complete() ||
      a.max_k() != b.max_k()) {
    return false;
  }
  for (uint32_t k = 1; k <= a.max_k(); ++k) {
    if (a.SliceShared(k) == b.SliceShared(k)) continue;  // shared: equal
    if (!(a.Slice(k) == b.Slice(k))) return false;
  }
  return true;
}

uint64_t PhcIndex::MemoryUsageBytes() const {
  // Shared slices are counted in full: this reports the index's logical
  // footprint, not the marginal cost over other snapshots' indexes.
  uint64_t total = 0;
  for (const auto& slice : slices_) {
    total += slice->vct.MemoryUsageBytes() +
             slice->emergence.capacity() * sizeof(Timestamp);
  }
  return total;
}

}  // namespace tkc
