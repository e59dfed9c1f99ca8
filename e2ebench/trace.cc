#include "e2ebench/trace.h"

#include <algorithm>
#include <cstdio>

namespace tkc::e2e {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int64_t SpanLog::Begin(const char* name, int64_t parent, uint64_t call_id) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.call_id = call_id;
  span.start_ns = NowNs();
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanLog::End(int64_t span) { spans_[span].end_ns = NowNs(); }

std::map<std::string, LayerTime> AggregateSpans(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, LayerTime> out;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<double> child_s(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_s[s.parent] += (s.end_ns - s.start_ns) * 1e-9;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const double d = (spans[i].end_ns - spans[i].start_ns) * 1e-9;
      LayerTime& layer = out[spans[i].name];
      ++layer.count;
      layer.total_s += d;
      layer.self_s += d - child_s[i];
    }
  }
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs, size_t max_per_log) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t t = 0; t < logs.size(); ++t) {
    const std::vector<Span>& spans = logs[t]->spans();
    for (size_t i = 0; i < std::min(spans.size(), max_per_log); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "{\"thread\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%lld,\"call_id\":%llu}\n",
                   t, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.call_id));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace tkc::e2e
