// The fault-mode differential sweep: every scenario runs with all the
// injection points armed (rebuild.fail, queue.full, dispatch.slow_worker,
// plus an index_io.corrupt_load round trip) and seeded deadlines attached
// to every submission. The contract under fire is weaker than the clean
// sweep's — per query, not per scenario — but still exact: every submitted
// batch terminates, every delivered outcome is either oracle-exact against
// its pinned graph version or carries an explicit Timeout /
// ResourceExhausted / FailedPrecondition verdict, and the updater's
// `applied + failed == submitted` accounting balances after every
// scenario. Registered under the `faults` ctest label; TKC_FAULT_SCENARIOS
// overrides the per-thread-count scenario count.

#include "tests/differential_harness.h"

#include <gtest/gtest.h>

namespace tkc {
namespace {

// Fault scenarios are slower than clean ones (injected backoff waits and
// slow-worker sleeps), so sweep fewer by default; CI pins the count.
#ifdef NDEBUG
constexpr uint32_t kDefaultScenarios = 24;
#else
constexpr uint32_t kDefaultScenarios = 6;
#endif

class DifferentialFaultTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialFaultTest, EveryOutcomeExactOrExplicitUnderFaults) {
  const int threads = GetParam();
  const uint32_t scenarios =
      DifferentialScenarioCount(kDefaultScenarios, "TKC_FAULT_SCENARIOS");
  uint64_t total_checked = 0;
  uint64_t total_explicit = 0;
  uint64_t total_retries = 0;
  uint64_t total_failed = 0;
  uint64_t total_applied = 0;
  for (uint32_t s = 0; s < scenarios; ++s) {
    DifferentialConfig config;
    config.seed = 9000 + s;
    config.threads = threads;
    config.faults = true;
    // One scenario fails its first rebuild cycle by construction, so the
    // sweep's "some cycles exhaust their retries" check below does not
    // depend on how many cycles coalescing happened to leave.
    config.exhaust_first_rebuild = s == 0;
    DifferentialReport report = RunDifferentialScenario(config);
    ASSERT_EQ(report.mismatches, 0u) << report.first_mismatch;
    EXPECT_GT(report.queries_checked + report.explicit_outcomes, 0u);
    total_checked += report.queries_checked;
    total_explicit += report.explicit_outcomes;
    total_retries += report.rebuild_retries;
    total_failed += report.failed_updates;
    total_applied += report.updates_applied;
  }
  // The sweep is vacuous unless the faults both bit and were survived:
  // retries happened, some updates still landed, deadlines/shedding
  // produced explicit verdicts, and plenty of outcomes stayed oracle-exact.
  EXPECT_GT(total_retries, 0u);
  EXPECT_GT(total_applied, 0u);
  EXPECT_GT(total_checked, 0u);
  if (scenarios >= 8) {
    EXPECT_GT(total_explicit, 0u);
    EXPECT_GT(total_failed, 0u);  // some cycles exhaust their retries
  }
  RecordProperty("queries_checked", static_cast<int>(total_checked));
  RecordProperty("explicit_outcomes", static_cast<int>(total_explicit));
  RecordProperty("rebuild_retries", static_cast<int>(total_retries));
}

INSTANTIATE_TEST_SUITE_P(Threads, DifferentialFaultTest,
                         ::testing::Values(1, 2, 8));

}  // namespace
}  // namespace tkc
