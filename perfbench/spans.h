#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

/// \file
/// The benchmark's own span log: the traced run records a span around
/// each call it makes into a psc layer, keeps the spans in memory and
/// writes them out at the end in the Chrome trace shape that
/// tools/psc_trace_summary.py reads (`ph:"X"` events whose args carry
/// `id` and `parent`).

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

struct Span {
  uint64_t id = 0;
  /// Id of the enclosing span, -1 for a root.
  int64_t parent = -1;
  std::string name;
  /// The benchmark operation or request the span belongs to.
  uint64_t request = 0;
  /// Start in microseconds on the psc trace clock (obs::TraceNowMicros),
  /// so benchmark spans and the engine's spans share one time line.
  uint64_t start_us = 0;
  double duration_us = 0.0;
  uint64_t tid = 0;
  /// obs::Scope id of an imported engine span, 0 otherwise.
  uint64_t scope = 0;
  /// Number of calls a coalesced span stands for (1 for a plain span).
  uint64_t count = 1;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span nested under the innermost open one. Open/Close are
  /// single-threaded (the library workloads' one client thread).
  size_t Open(const char* name, uint64_t request);
  /// Closes the span `Open` returned, which must be the innermost one.
  void Close(size_t handle);

  /// Records `count` calls of `name` made inside the innermost open span
  /// as one span whose duration is their summed time. Used for per-world
  /// callbacks, which are too many to log one by one.
  void AddCoalesced(const char* name, uint64_t start_us, double total_us,
                    uint64_t count);

  /// Appends a finished span; safe from any thread. Returns its id.
  uint64_t Append(Span span);
  /// Moves the spans the psc library buffered (obs::GlobalTrace, filled
  /// while obs tracing is on) into this log, clearing that buffer. Their
  /// ids are remapped into this log's id space; a library root span is
  /// parented to the innermost span of this log on the same thread that
  /// contains it, so library spans nest under the benchmark call that
  /// caused them. Returns the number of spans imported.
  size_t ImportLibrarySpans();

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time (duration minus the time covered by direct children,
  /// clamped at 0) summed per span name, in microseconds.
  std::map<std::string, double> SelfMicrosByName() const;

  /// Writes the Chrome trace document; false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct OpenSpan {
    size_t index;
    Clock::time_point start;
  };

  const bool enabled_;
  std::mutex mutex_;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
  std::vector<OpenSpan> stack_;
};

/// RAII span on a SpanLog; a no-op when the log is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t request = 0)
      : log_(log->enabled() ? log : nullptr),
        handle_(log_ != nullptr ? log_->Open(name, request) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  size_t handle_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
