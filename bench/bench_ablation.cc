// Ablation study for the design choices DESIGN.md calls out, at the
// figure level (dataset workloads rather than microbenchmarks):
//
//   A1. CoreTime builder: worklist-fixpoint advance (O(|VCT|*deg_avg)) vs
//       one decremental sweep per start time (O(tmax*m)). The gap is the
//       contribution of the PHC-style maintenance, and it widens with the
//       number of distinct timestamps in the query range.
//   A2. EnumBase dedup policy: storing full cores (paper-faithful) vs
//       128-bit fingerprints — isolates how much of EnumBase's cost is the
//       duplicate bookkeeping itself.
//   A3. OTCD cross-row pruning on/off — the value of the PoU/PoL marks
//       beyond the PoR row jump.

#include <cstdio>
#include <functional>
#include <string>

#include "bench/bench_common.h"
#include "core/enum_base.h"
#include "core/sinks.h"
#include "otcd/otcd.h"
#include "util/timer.h"
#include "vct/naive_vct_builder.h"
#include "vct/vct_builder.h"

namespace {

using namespace tkc;
using namespace tkc::bench;

std::string Timed(double limit_seconds, double* out_seconds,
                  const std::function<bool(const Deadline&)>& fn) {
  Deadline deadline = limit_seconds > 0
                          ? Deadline::AfterSeconds(limit_seconds)
                          : Deadline();
  WallTimer timer;
  bool ok = fn(deadline);
  *out_seconds = timer.ElapsedSeconds();
  if (!ok) return "DNF";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", *out_seconds);
  return buf;
}

/// The "vs default" cell: how many times slower or faster the variant ran
/// than the default, with the word chosen by which time is smaller, or "-"
/// when either run did not finish (or took no measurable time).
std::string VsDefault(const std::string& default_cell, double default_s,
                      const std::string& variant_cell, double variant_s) {
  if (default_cell == "DNF" || variant_cell == "DNF" || default_s <= 0 ||
      variant_s <= 0) {
    return "-";
  }
  char buf[32];
  if (variant_s > default_s) {
    std::snprintf(buf, sizeof(buf), "%.1fx slower", variant_s / default_s);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fx faster", default_s / variant_s);
  }
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config = ParseBenchConfig(argc, argv);
  if (config.datasets.empty()) config.datasets = {"CM", "EM", "EN", "PL"};

  std::printf("=== Ablations (k=30%% kmax, range=10%% tmax, %u queries, "
              "limit %.1fs) ===\n",
              config.queries, config.limit_seconds);
  for (const std::string& name : config.datasets) {
    auto prepared = Prepare(name, config.scale);
    if (!prepared.ok()) continue;
    std::vector<Query> queries = MakeQueries(*prepared, config, 0.30, 0.10);
    if (queries.empty()) {
      std::printf("\n--- %s: no valid queries ---\n", name.c_str());
      continue;
    }
    const TemporalGraph& g = prepared->graph;
    std::printf("\n--- %s ---\n", name.c_str());
    TextTable table;
    table.SetHeader({"variant", "avg time (s)", "vs default"});

    // A1: CoreTime builders.
    double fixpoint_s = 0, sweep_s = 0;
    std::string fixpoint_cell = Timed(
        config.limit_seconds, &fixpoint_s, [&](const Deadline& d) {
          for (const Query& q : queries) {
            if (d.Expired()) return false;
            VctBuildResult r = BuildVctAndEcs(g, q.k, q.range);
            (void)r;
          }
          return true;
        });
    std::string sweep_cell = Timed(
        config.limit_seconds, &sweep_s, [&](const Deadline& d) {
          for (const Query& q : queries) {
            if (d.Expired()) return false;
            VctBuildResult r = BuildVctAndEcsNaive(g, q.k, q.range);
            (void)r;
          }
          return true;
        });
    table.AddRow({"CoreTime: fixpoint advance (default)", fixpoint_cell,
                  "1.0x"});
    table.AddRow({"CoreTime: per-start sweeps", sweep_cell,
                  VsDefault(fixpoint_cell, fixpoint_s, sweep_cell, sweep_s)});

    // A2: EnumBase dedup policies (shared skyline built once).
    VctBuildResult built = BuildVctAndEcs(g, queries[0].k, queries[0].range);
    double full_s = 0, fp_s = 0;
    std::string full_cell = Timed(
        config.limit_seconds, &full_s, [&](const Deadline& d) {
          CountingSink sink;
          return EnumerateFromEcsBase(g, built.ecs, &sink,
                                      EnumBaseDedup::kStoreFullCores, nullptr,
                                      d)
              .ok();
        });
    std::string fp_cell = Timed(
        config.limit_seconds, &fp_s, [&](const Deadline& d) {
          CountingSink sink;
          return EnumerateFromEcsBase(g, built.ecs, &sink,
                                      EnumBaseDedup::kFingerprintOnly,
                                      nullptr, d)
              .ok();
        });
    table.AddRow({"EnumBase: store full cores (paper)", full_cell, "1.0x"});
    table.AddRow({"EnumBase: fingerprint dedup", fp_cell,
                  VsDefault(full_cell, full_s, fp_cell, fp_s)});

    // A3: OTCD pruning.
    double prune_s = 0, noprune_s = 0;
    std::string prune_cell = Timed(
        config.limit_seconds, &prune_s, [&](const Deadline& d) {
          for (const Query& q : queries) {
            CountingSink sink;
            OtcdOptions options;
            options.deadline = d;
            if (!RunOtcd(g, q.k, q.range, &sink, options).ok()) return false;
          }
          return true;
        });
    std::string noprune_cell = Timed(
        config.limit_seconds, &noprune_s, [&](const Deadline& d) {
          for (const Query& q : queries) {
            CountingSink sink;
            OtcdOptions options;
            options.deadline = d;
            options.cross_row_pruning = false;
            if (!RunOtcd(g, q.k, q.range, &sink, options).ok()) return false;
          }
          return true;
        });
    table.AddRow({"OTCD: cross-row pruning (default)", prune_cell, "1.0x"});
    table.AddRow({"OTCD: no cross-row pruning", noprune_cell,
                  VsDefault(prune_cell, prune_s, noprune_cell, noprune_s)});
    table.Print();
  }
  return 0;
}
