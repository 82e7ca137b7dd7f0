#ifndef CYCLEQR_BENCH_E2E_SPANS_H_
#define CYCLEQR_BENCH_E2E_SPANS_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/thread_annotations.h"

namespace cyqr::e2e {

/// Steady-clock nanoseconds; the one clock every benchmark timestamp uses.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans recorded by the benchmark's own decorators around each call into a
/// layer (name, start, end, parent span, request id). Each thread appends to
/// its own buffer, so recording takes no lock; Collect() reads every buffer
/// once all writers have stopped (servers drained, threads joined).
class SpanRecorder {
 public:
  static constexpr int64_t kPendingRequest = -1;

  struct Span {
    int32_t name = 0;
    int32_t parent = -1;  // Index of the enclosing span; -1 at the root.
    int64_t request = kPendingRequest;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  /// One thread's spans plus its stack of open ones. A deque grows in
  /// small blocks, so a long run never stalls a worker to copy its spans.
  struct ThreadBuffer {
    std::deque<Span> spans;
    std::vector<int32_t> open;
    size_t first_pending = 0;

    int32_t Open(int32_t name) {
      const int32_t index = static_cast<int32_t>(spans.size());
      spans.push_back({name, open.empty() ? -1 : open.back(),
                       kPendingRequest, 0, 0});
      open.push_back(index);
      spans.back().start_ns = NowNs();
      return index;
    }
    void Close(int32_t index) {
      spans[static_cast<size_t>(index)].end_ns = NowNs();
      open.pop_back();
    }
  };

  /// Times one scope on the calling thread; a null recorder records nothing.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, int32_t name)
        : buffer_(recorder == nullptr ? nullptr : recorder->Local()) {
      if (buffer_ != nullptr) index_ = buffer_->Open(name);
    }
    ~Scope() {
      if (buffer_ != nullptr) buffer_->Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ThreadBuffer* buffer_;
    int32_t index_ = 0;
  };

  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Id for `name`; idempotent. Call before writer threads start.
  int32_t Intern(const std::string& name);

  /// Gives every span the calling thread recorded since the last stamp the
  /// request id `request`. A server worker runs one request at a time, so
  /// the completion callback (which runs on that worker) owns them all.
  void StampPending(int64_t request);

  /// Every recorded span, parents rebased onto the flat vector, with self
  /// time = duration minus the time the span's direct children cover.
  struct Collected {
    std::vector<std::string> names;
    std::vector<Span> spans;
    std::vector<int64_t> self_ns;

    /// Id of `name` in `names`; -1 when no span was ever interned under it.
    int32_t Id(const std::string& name) const;
    /// Durations (or self times) in microseconds of spans named `name`.
    std::vector<double> Micros(const std::string& name, bool self) const;
    int64_t Count(const std::string& name) const;
  };
  Collected Collect() const;

  /// Span count so far (all threads; call when writers are quiescent).
  int64_t size() const;

 private:
  ThreadBuffer* Local();

  const uint64_t id_;
  mutable std::mutex mu_;
  std::vector<std::string> names_ CYQR_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ CYQR_GUARDED_BY(mu_);
};

/// Per-name totals plus the first `max_spans` raw spans, as JSON.
std::string TraceJson(const SpanRecorder::Collected& collected,
                      size_t max_spans);

}  // namespace cyqr::e2e

#endif  // CYCLEQR_BENCH_E2E_SPANS_H_
