#include "spans.h"

#include <cstdio>
#include <unordered_map>

#include "psc/obs/json.h"
#include "psc/obs/trace.h"

namespace perfbench {

size_t SpanLog::Open(const char* name, uint64_t request) {
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.id = next_id_++;
  span.parent = stack_.empty()
                    ? -1
                    : static_cast<int64_t>(spans_[stack_.back().index].id);
  span.name = name;
  span.request = request;
  span.start_us = psc::obs::TraceNowMicros();
  span.tid = psc::obs::CurrentThreadLaneId();
  spans_.push_back(std::move(span));
  stack_.push_back(OpenSpan{spans_.size() - 1, Clock::now()});
  return spans_.size() - 1;
}

void SpanLog::Close(size_t handle) {
  const Clock::time_point end = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  const OpenSpan open = stack_.back();
  stack_.pop_back();
  if (open.index != handle) {
    std::fprintf(stderr, "perfbench: span closed out of order\n");
    std::abort();
  }
  spans_[handle].duration_us = MicrosBetween(open.start, end);
}

void SpanLog::AddCoalesced(const char* name, uint64_t start_us,
                           double total_us, uint64_t count) {
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.id = next_id_++;
  if (!stack_.empty()) {
    const Span& parent = spans_[stack_.back().index];
    span.parent = static_cast<int64_t>(parent.id);
    span.request = parent.request;
  }
  span.name = name;
  span.start_us = start_us;
  span.duration_us = total_us;
  span.tid = psc::obs::CurrentThreadLaneId();
  span.count = count;
  spans_.push_back(std::move(span));
}

size_t SpanLog::ImportLibrarySpans() {
  std::vector<psc::obs::SpanRecord> records =
      psc::obs::GlobalTrace().Snapshot();
  psc::obs::GlobalTrace().Clear();
  std::lock_guard<std::mutex> lock(mutex_);
  const size_t own = spans_.size();
  std::unordered_map<uint64_t, uint64_t> remap;
  for (const psc::obs::SpanRecord& record : records) {
    remap[record.id] = next_id_++;
  }
  for (const psc::obs::SpanRecord& record : records) {
    Span span;
    span.id = remap[record.id];
    span.name = record.name;
    span.start_us = record.start_us;
    span.duration_us = static_cast<double>(record.duration_us);
    span.tid = record.tid;
    span.scope = record.scope_id;
    const auto parent = remap.find(static_cast<uint64_t>(record.parent_id));
    if (record.parent_id >= 0 && parent != remap.end()) {
      span.parent = static_cast<int64_t>(parent->second);
    } else {
      // Own spans are stored in opening order, so the last one on this
      // lane that covers the library span is the innermost.
      const Span* best = nullptr;
      for (size_t i = own; i-- > 0;) {
        const Span& candidate = spans_[i];
        if (candidate.tid == span.tid && candidate.count == 1 &&
            candidate.start_us <= span.start_us &&
            candidate.start_us + candidate.duration_us + 1 >=
                span.start_us + span.duration_us) {
          best = &candidate;
          break;
        }
      }
      if (best != nullptr) {
        span.parent = static_cast<int64_t>(best->id);
        span.request = best->request;
      }
    }
    spans_.push_back(std::move(span));
  }
  return records.size();
}

uint64_t SpanLog::Append(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (span.id == 0) span.id = next_id_++;
  const uint64_t id = span.id;
  spans_.push_back(std::move(span));
  return id;
}

std::map<std::string, double> SpanLog::SelfMicrosByName() const {
  std::unordered_map<uint64_t, double> children;
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<uint64_t>(span.parent)] += span.duration_us;
    }
  }
  std::map<std::string, double> self;
  for (const Span& span : spans_) {
    const auto it = children.find(span.id);
    const double covered = it == children.end() ? 0.0 : it->second;
    self[span.name] += std::max(0.0, span.duration_us - covered);
  }
  return self;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("{\"traceEvents\":[", file);
  bool first = true;
  for (const Span& span : spans_) {
    std::fprintf(file,
                 "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"ts\":%llu,\"dur\":%.3f,\"pid\":1,\"tid\":%llu,"
                 "\"args\":{\"id\":%llu,\"parent\":%lld,\"request\":%llu,"
                 "\"scope\":%llu,\"count\":%llu}}",
                 first ? "" : ",", psc::obs::JsonEscape(span.name).c_str(),
                 static_cast<unsigned long long>(span.start_us),
                 span.duration_us, static_cast<unsigned long long>(span.tid),
                 static_cast<unsigned long long>(span.id),
                 static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.request),
                 static_cast<unsigned long long>(span.scope),
                 static_cast<unsigned long long>(span.count));
    first = false;
  }
  std::fputs("\n],\"displayTimeUnit\":\"ms\"}\n", file);
  return std::fclose(file) == 0;
}

}  // namespace perfbench
