// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around calls into each layer's public functions;
// they stay in per-thread buffers until the run ends, when they are
// summarised (durations and self times per span name) and written out.

#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace servebench {

struct Span {
  const char* name = "";
  uint64_t request_id = 0;
  int32_t parent = -1;  // index into the same thread's buffer; -1 = root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// One thread's span buffer. Not thread-safe: each client thread owns one.
class SpanBuffer {
 public:
  explicit SpanBuffer(size_t capacity) { spans_.reserve(capacity); }

  /// Opens a span as a child of the innermost open span; returns its index
  /// (-1 when the buffer is full and the span is dropped).
  int32_t Open(const char* name, uint64_t request_id);
  void Close(int32_t index);
  void Rename(int32_t index, const char* name) {
    if (index >= 0) spans_[static_cast<size_t>(index)].name = name;
  }
  bool full() const { return spans_.size() == spans_.capacity(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a null buffer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, uint64_t request_id)
      : buffer_(buffer),
        index_(buffer != nullptr ? buffer->Open(name, request_id) : -1) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Rename(const char* name) {
    if (buffer_ != nullptr) buffer_->Rename(index_, name);
  }

 private:
  SpanBuffer* buffer_;
  int32_t index_;
};

int64_t NowNs();

/// Per span name: every duration (ns) and the summed self time (ns).
struct SpanSummary {
  std::vector<double> durations_ns;
  double self_ns = 0.0;
};

/// Summarises all buffers. A span's self time is its duration minus the
/// part of its interval covered by its child spans.
std::map<std::string, SpanSummary> Summarise(
    const std::vector<std::unique_ptr<SpanBuffer>>& buffers);

/// Writes every span as one tab-separated line:
/// thread, index, parent, request id, name, start ns, end ns.
bool WriteSpans(const std::vector<std::unique_ptr<SpanBuffer>>& buffers,
                const std::string& path);

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_H_
