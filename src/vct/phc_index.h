#ifndef TKC_VCT_PHC_INDEX_H_
#define TKC_VCT_PHC_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/temporal_graph.h"
#include "util/status.h"
#include "vct/vct_index.h"

/// \file phc_index.h
/// The full PHC index of Yu et al. (VLDB'21), of which the paper's VCT is
/// the single-k slice: vertex core times for *every* k from 1 to the
/// window's kmax, supporting historical k-core queries with the k given at
/// query time. Construction runs the per-k builder for each k — the slices
/// are independent, and per-slice cost O(|VCT_k|·deg_avg) shrinks quickly
/// with k, so the total is dominated by the small-k slices exactly as in
/// the original paper's analysis.
///
/// Because the slices are independent, construction fans them out over a
/// ThreadPool: slice k is computed by whichever worker claims it and stored
/// at index k-1, so the parallel index is bit-identical to the serial one
/// regardless of completion order. Each worker reuses one VctBuildArena
/// across all slices it claims.
///
/// Each slice holds its VCT rows together with its *core-emergence table*:
/// for every start ts, min over u of CT_ts(u) — the earliest end time at
/// which any k-core exists for that start. Core times are non-decreasing
/// in ts, so "does [Ts, Te] hold a k-core?" is one lookup (MayContainCore),
/// the admission shortcut of the serving layer. The table is a pure
/// function of the rows and is derived in one linear pass wherever a
/// slice is made (built, suffix-stitched, or loaded).
///
/// Slices are held behind shared_ptr: an index is a cheap-to-copy stack of
/// immutable slices, and successive graph versions can *share* the slices
/// an edge delta provably did not touch — tables included. That sharing is
/// what Rebuild exploits — the live serving layer's incremental
/// maintenance path: instead of rebuilding every k-slice on each snapshot
/// swap, it reuses the clean ones by pointer and rebuilds only the dirty
/// ones, bit-identical to a from-scratch Build.

namespace tkc {

class ThreadPool;

/// Construction knobs for PhcIndex::Build.
struct PhcBuildOptions {
  /// Cap on the largest k to build; 0 means "up to the window's kmax".
  uint32_t max_k = 0;
  /// Pool to fan slices out over; nullptr builds serially on the caller.
  ThreadPool* pool = nullptr;
};

/// What one PhcIndex::Rebuild proved and did.
struct PhcRebuildStats {
  /// "No slice (or cached outcome) is provably clean."
  static constexpr uint32_t kNothingClean = 0xffffffffu;

  /// Slices of the old index reused by pointer.
  uint32_t slices_reused = 0;
  /// Slices (re)built from scratch over the new graph.
  uint32_t slices_rebuilt = 0;
  /// Dirty slices maintained partially: only the start-time band the delta
  /// could have touched was recomputed (BuildVctSuffix), the untouched
  /// prefix/tail rows carried over (StitchCoreTimeSuffix).
  uint32_t suffix_rebuilds = 0;
  /// Slices whose recompute band shrank below (or closed entirely against)
  /// the global [first value >= delta.min_time, delta.max_time] bound
  /// because the per-vertex impact proof showed the delta edges cannot
  /// reach degree k early enough inside the candidate windows.
  uint32_t bands_tightened = 0;
  /// VCT rows carried from the old index: every row of a pointer-reused
  /// slice plus the prefix/tail rows of suffix-maintained slices.
  uint64_t rows_reused = 0;
  /// Total VCT rows across the produced index (denominator of the
  /// row-level reuse ratio the live-update bench gates on).
  uint64_t rows_total = 0;
  /// The delta's proof boundary: every k-slice — and every cached
  /// (k, range) outcome — with k > clean_above_k is provably identical
  /// across the swap. 0 after an empty delta (everything clean);
  /// kNothingClean when reuse was ineligible (timeline or vertex pool
  /// changed, or the ranges disagreed) and everything was rebuilt.
  uint32_t clean_above_k = kNothingClean;

  /// True iff at least the slices above clean_above_k carried over.
  bool reuse_eligible() const { return clean_above_k != kNothingClean; }
};

/// Immutable multi-k core-time index over one query range.
class PhcIndex {
 public:
  /// Builds slices for k = 1..min(kmax(range), max_k). max_k == 0 means
  /// "up to kmax". Fails on an invalid range. Uses the process-wide shared
  /// pool (util/thread_pool.h; sized by TKC_NUM_THREADS, default hardware
  /// concurrency) — output is identical at any thread count.
  static StatusOr<PhcIndex> Build(const TemporalGraph& g, Window range,
                                  uint32_t max_k = 0);

  /// As above with explicit options (thread pool, k cap).
  static StatusOr<PhcIndex> Build(const TemporalGraph& g, Window range,
                                  const PhcBuildOptions& options);

  /// Delta-aware rebuild for the live-update path: produces the index
  /// Build(g, g.FullRange(), options) would produce, where `g` is
  /// `old_index`'s graph plus the append described by `delta`, but reuses
  /// (by pointer) every slice of `old_index` the delta provably left
  /// unchanged and rebuilds only the dirty ones over the pool.
  ///
  /// Reuse is sound because a k-core can only change when a delta edge
  /// joins it, which requires both endpoints to have distinct-neighbor
  /// degree >= k — so every window's k-core, and hence slice k, is
  /// unchanged for k > delta.max_core_bound, provided the compacted
  /// timeline and the vertex pool carried over (delta.timestamps_preserved
  /// && delta.vertices_preserved) and old_index covers the same range.
  /// When those preconditions fail, every slice is rebuilt (equivalent to
  /// Build, stats report nothing clean). The result is bit-identical to a
  /// from-scratch Build either way — the incremental differential mode
  /// asserts exactly that, per slice, at several thread counts.
  ///
  /// Dirty slices (k <= max_core_bound) are additionally maintained
  /// *partially* when the same preconditions hold: a changed core time
  /// CT_ts(u) requires a delta edge inside some window [ts, te <= CT], so
  /// it needs both ts <= delta.max_time and an old value >= delta.min_time
  /// (values below min_time belong to windows the delta never reaches).
  /// Per slice, the earliest start any vertex's old value reaches min_time
  /// — range.start for a vertex with no old rows whose new full-range core
  /// number reached k, since first-time membership always shows at the
  /// first start — bounds the dirty band from below, and max_time bounds
  /// it from above. Only that band is recomputed (BuildVctSuffix) and
  /// spliced back between the untouched prefix/tail rows
  /// (StitchCoreTimeSuffix); a slice whose band is empty is reused whole
  /// even though k <= max_core_bound.
  ///
  /// The per-vertex band is additionally *tightened* by delta-endpoint
  /// connectivity: appends only grow windows' k-cores, so a row (u, ts)
  /// with old value c changes only if some window [ts, te < c] gains a
  /// k-core member — which requires a delta edge (a, b, t) with both
  /// endpoints inside the new window's k-core, hence t >= ts, te >= t, and
  /// each endpoint reaching distinct-neighbor degree >= k within [ts, te].
  /// The earliest such te over all delta edges, E(ts) — non-decreasing in
  /// ts — prunes every row with c <= E(ts), often shrinking the recompute
  /// band well below the global bound (or closing it) when the appended
  /// edges land in sparse neighborhoods. Exact, not heuristic: the
  /// differential harness proves the stitched slices bit-identical to
  /// from-scratch builds.
  static StatusOr<PhcIndex> Rebuild(const PhcIndex& old_index,
                                    const TemporalGraph& g,
                                    const EdgeDelta& delta,
                                    const PhcBuildOptions& options,
                                    PhcRebuildStats* stats = nullptr);

  /// Reassembles an index from already-built slices (the deserialization
  /// path of vct/index_io.h). Validates that slice k sits at index k-1 over
  /// a consistent (range, vertex count); `complete` must be the value the
  /// original build reported. Fails with InvalidArgument on inconsistency.
  static StatusOr<PhcIndex> FromSlices(Window range, bool complete,
                                       std::vector<VertexCoreTimeIndex> slices);

  Window range() const { return range_; }

  /// Largest k with a slice (the window's kmax, or the build cap).
  uint32_t max_k() const { return static_cast<uint32_t>(slices_.size()); }

  /// True iff the slices cover *every* k with a non-empty core in the range
  /// — i.e. the build's max_k cap never bit (or there was none). Only a
  /// complete index can prove "k > max_k()" queries globally empty; a
  /// capped one cannot distinguish "no such core" from "not built".
  bool complete() const { return complete_; }

  /// The VCT slice for `k` (1 <= k <= max_k()).
  const VertexCoreTimeIndex& Slice(uint32_t k) const;

  /// The shared handle of slice `k` — compare against another index's to
  /// detect cross-snapshot sharing (a Rebuild reuses slices by pointer).
  std::shared_ptr<const VertexCoreTimeIndex> SliceShared(uint32_t k) const;

  /// CT^k_ts(u): core time of u for start ts at cohesion k. Returns
  /// kInfTime when k exceeds max_k() (no such core exists in the range).
  Timestamp CoreTimeAt(VertexId u, Timestamp ts, uint32_t k) const;

  /// True iff u is in the k-core of G[window.start, window.end].
  bool VertexInCore(VertexId u, Window window, uint32_t k) const;

  /// Largest k such that u is in the k-core of the window (0 if none) —
  /// the "historical core number", by binary search over slices (core
  /// membership is monotone decreasing in k).
  uint32_t HistoricalCoreNumber(VertexId u, Window window) const;

  /// False only when no temporal k-core provably exists inside `window`:
  /// slice k's emergence table puts the first k-core for window.start past
  /// window.end, or k exceeds max_k() of a complete index. True when the
  /// index cannot prove emptiness — k above a capped index, k == 0, or an
  /// invalid window or one outside range().
  bool MayContainCore(uint32_t k, Window window) const;

  /// Slice k's core-emergence table, indexed by ts - range().start
  /// (kInfTime where no k-core exists for that start); empty when k is out
  /// of [1, max_k()].
  std::span<const Timestamp> EmergenceTable(uint32_t k) const;

  /// Total entries across all slices.
  uint64_t size() const;

  /// Rows and emergence tables of every slice.
  uint64_t MemoryUsageBytes() const;

 private:
  /// One k-slice: its rows and the emergence table derived from them.
  struct SliceData {
    explicit SliceData(VertexCoreTimeIndex rows);
    VertexCoreTimeIndex vct;
    std::vector<Timestamp> emergence;
  };

  Window range_{0, 0};
  bool complete_ = true;
  /// Slice k at index k-1; immutable and shareable across index versions.
  std::vector<std::shared_ptr<const SliceData>> slices_;
};

/// Bit-identity of two indexes: same range, completeness, max_k, and
/// per-slice contents (pointer-shared slices compare in O(1)). The
/// incremental differential mode and the live-update bench use this to
/// prove a delta-aware Rebuild equals a from-scratch Build.
bool operator==(const PhcIndex& a, const PhcIndex& b);
inline bool operator!=(const PhcIndex& a, const PhcIndex& b) {
  return !(a == b);
}

}  // namespace tkc

#endif  // TKC_VCT_PHC_INDEX_H_
