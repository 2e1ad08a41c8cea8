#include "servebench/trace.h"

#include <algorithm>
#include <cstdio>

namespace servebench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t SpanBuffer::Open(const char* name, uint64_t request_id) {
  if (full()) return -1;
  Span span;
  span.name = name;
  span.request_id = request_id;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  const auto index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanBuffer::Close(int32_t index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, SpanSummary> Summarise(
    const std::vector<std::unique_ptr<SpanBuffer>>& buffers) {
  std::map<std::string, SpanSummary> out;
  for (const auto& buffer : buffers) {
    const std::vector<Span>& spans = buffer->spans();
    std::vector<double> covered(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent < 0) continue;
      const Span& p = spans[static_cast<size_t>(s.parent)];
      const int64_t lo = std::max(s.start_ns, p.start_ns);
      const int64_t hi = std::min(s.end_ns, p.end_ns);
      if (hi > lo) covered[static_cast<size_t>(s.parent)] += double(hi - lo);
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const double duration = double(spans[i].end_ns - spans[i].start_ns);
      SpanSummary& summary = out[spans[i].name];
      summary.durations_ns.push_back(duration);
      summary.self_ns += std::max(0.0, duration - covered[i]);
    }
  }
  return out;
}

bool WriteSpans(const std::vector<std::unique_ptr<SpanBuffer>>& buffers,
                const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread\tindex\tparent\trequest\tname\tstart_ns\tend_ns\n");
  for (size_t t = 0; t < buffers.size(); ++t) {
    const std::vector<Span>& spans = buffers[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu\t%zu\t%d\t%llu\t%s\t%lld\t%lld\n", t, i, s.parent,
                   static_cast<unsigned long long>(s.request_id), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace servebench
