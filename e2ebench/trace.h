#ifndef TKC_E2EBENCH_TRACE_H_
#define TKC_E2EBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// \file trace.h
/// In-memory span recording for the benchmark's traced run. Spans are taken
/// in the benchmark's own code around calls into each layer's public
/// functions; each has a name, start, end, parent span and the id of the
/// wire call it belongs to. One SpanLog per thread (no locking); the logs
/// are aggregated and written out once the run ends.

namespace tkc::e2e {

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  ///< index into the same log, -1 for a root
  uint64_t call_id = 0;
};

class SpanLog {
 public:
  /// Opens a span and returns its index (the parent handle of children).
  int64_t Begin(const char* name, int64_t parent, uint64_t call_id);
  void End(int64_t span);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Opens a span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t parent, uint64_t call_id)
      : log_(log), index_(log->Begin(name, parent, call_id)) {}
  ~ScopedSpan() { log_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t index() const { return index_; }

 private:
  SpanLog* log_;
  int64_t index_;
};

/// Per span name: how many, total duration, and self time. Self time is a
/// span's duration minus the durations of its direct children. Children
/// run serially on their parent's thread, so they never overlap each other;
/// a replay child (the same work re-run in-process after the wire call it
/// stands for) counts as covered time of its parent.
struct LayerTime {
  uint64_t count = 0;
  double total_s = 0;
  double self_s = 0;
};
std::map<std::string, LayerTime> AggregateSpans(
    const std::vector<const SpanLog*>& logs);

/// Writes the first `max_per_log` spans of each log (a log records spans in
/// start order) as one JSON object per line; false on I/O failure.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs, size_t max_per_log);

}  // namespace tkc::e2e

#endif  // TKC_E2EBENCH_TRACE_H_
