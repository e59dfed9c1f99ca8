#include "e2ebench/trace.h"

#include <gtest/gtest.h>

namespace tkc::e2e {
namespace {

TEST(AggregateSpansTest, SelfTimeSubtractsDirectChildrenOnly) {
  SpanLog log;
  {
    ScopedSpan root(&log, "call", -1, 7);
    { ScopedSpan child(&log, "net.wire", root.index(), 7); }
    const int64_t serve = log.Begin("serve.batch", root.index(), 7);
    { ScopedSpan grandchild(&log, "vct.coretime", serve, 7); }
    log.End(serve);
  }
  // A replay child recorded after its parent ended still counts against it.
  { ScopedSpan late(&log, "core.enum", 2, 7); }

  const auto layers = AggregateSpans({&log});
  const LayerTime& call = layers.at("call");
  const LayerTime& wire = layers.at("net.wire");
  const LayerTime& serve = layers.at("serve.batch");
  const LayerTime& vct = layers.at("vct.coretime");
  const LayerTime& enumerate = layers.at("core.enum");
  EXPECT_EQ(call.count, 1u);
  // Durations are whole nanoseconds; 1e-12 s absorbs the rounding of sums.
  EXPECT_NEAR(call.self_s, call.total_s - wire.total_s - serve.total_s, 1e-12);
  EXPECT_NEAR(serve.self_s, serve.total_s - vct.total_s - enumerate.total_s,
              1e-12);
  EXPECT_NEAR(wire.self_s, wire.total_s, 1e-12);
  for (const Span& s : log.spans()) {
    EXPECT_EQ(s.call_id, 7u);
    EXPECT_LE(s.start_ns, s.end_ns);
  }
}

}  // namespace
}  // namespace tkc::e2e
