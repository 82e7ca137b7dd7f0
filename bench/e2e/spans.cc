#include "bench/e2e/spans.h"

#include <algorithm>
#include <atomic>
#include <map>

#include "bench/e2e/report.h"

namespace cyqr::e2e {
namespace {

// Recorder identities for the thread-local buffer cache: never reused, so
// a recorder created at a dead one's address cannot inherit its buffers.
std::atomic<uint64_t> next_recorder_id{1};

}  // namespace

SpanRecorder::SpanRecorder() : id_(next_recorder_id.fetch_add(1)) {}

int32_t SpanRecorder::Intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int32_t>(i);
  }
  names_.push_back(name);
  return static_cast<int32_t>(names_.size() - 1);
}

SpanRecorder::ThreadBuffer* SpanRecorder::Local() {
  thread_local uint64_t owner = 0;
  thread_local ThreadBuffer* buffer = nullptr;
  if (owner != id_) {
    auto fresh = std::make_unique<ThreadBuffer>();
    buffer = fresh.get();
    owner = id_;
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(fresh));
  }
  return buffer;
}

void SpanRecorder::StampPending(int64_t request) {
  ThreadBuffer* buffer = Local();
  for (size_t i = buffer->first_pending; i < buffer->spans.size(); ++i) {
    buffer->spans[i].request = request;
  }
  buffer->first_pending = buffer->spans.size();
}

int64_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& buffer : buffers_) {
    total += static_cast<int64_t>(buffer->spans.size());
  }
  return total;
}

SpanRecorder::Collected SpanRecorder::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  Collected out;
  out.names = names_;
  for (const auto& buffer : buffers_) {
    const int32_t offset = static_cast<int32_t>(out.spans.size());
    for (const Span& span : buffer->spans) {
      Span rebased = span;
      if (rebased.parent >= 0) rebased.parent += offset;
      out.spans.push_back(rebased);
      out.self_ns.push_back(span.end_ns - span.start_ns);
    }
  }
  // Siblings on one thread never overlap, so the children's coverage of a
  // parent is the sum of their durations.
  for (const Span& span : out.spans) {
    if (span.parent >= 0) {
      out.self_ns[static_cast<size_t>(span.parent)] -=
          span.end_ns - span.start_ns;
    }
  }
  return out;
}

int32_t SpanRecorder::Collected::Id(const std::string& name) const {
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<int32_t>(i);
  }
  return -1;
}

std::vector<double> SpanRecorder::Collected::Micros(const std::string& name,
                                                    bool self) const {
  const int32_t id = Id(name);
  std::vector<double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != id) continue;
    const int64_t ns = self ? self_ns[i] : spans[i].end_ns - spans[i].start_ns;
    out.push_back(static_cast<double>(ns) / 1e3);
  }
  return out;
}

int64_t SpanRecorder::Collected::Count(const std::string& name) const {
  const int32_t id = Id(name);
  int64_t count = 0;
  for (const Span& span : spans) {
    if (span.name == id) ++count;
  }
  return count;
}

std::string TraceJson(const SpanRecorder::Collected& collected,
                      size_t max_spans) {
  struct Totals {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, Totals> by_name;
  for (size_t i = 0; i < collected.spans.size(); ++i) {
    const SpanRecorder::Span& span = collected.spans[i];
    Totals& t = by_name[collected.names[static_cast<size_t>(span.name)]];
    ++t.count;
    t.total_ns += span.end_ns - span.start_ns;
    t.self_ns += collected.self_ns[i];
  }
  std::string out = "{\"spans_total\": " +
                    std::to_string(collected.spans.size()) +
                    ", \"by_name\": {";
  bool first = true;
  for (const auto& [name, t] : by_name) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"count\": " + std::to_string(t.count) +
           ", \"total_ms\": " +
           JsonNumber(static_cast<double>(t.total_ns) / 1e6) +
           ", \"self_ms\": " +
           JsonNumber(static_cast<double>(t.self_ns) / 1e6) + "}";
  }
  out += "}, \"spans\": [";
  const size_t n = std::min(max_spans, collected.spans.size());
  const int64_t t0 = n > 0 ? collected.spans[0].start_ns : 0;
  for (size_t i = 0; i < n; ++i) {
    const SpanRecorder::Span& span = collected.spans[i];
    if (i > 0) out += ",\n";
    out += "{\"id\": " + std::to_string(i) + ", \"name\": " +
           JsonString(collected.names[static_cast<size_t>(span.name)]) +
           ", \"parent\": " + std::to_string(span.parent) +
           ", \"request\": " + std::to_string(span.request) +
           ", \"start_us\": " +
           JsonNumber(static_cast<double>(span.start_ns - t0) / 1e3) +
           ", \"end_us\": " +
           JsonNumber(static_cast<double>(span.end_ns - t0) / 1e3) +
           ", \"self_us\": " +
           JsonNumber(static_cast<double>(collected.self_ns[i]) / 1e3) + "}";
  }
  out += "]}\n";
  return out;
}

}  // namespace cyqr::e2e
