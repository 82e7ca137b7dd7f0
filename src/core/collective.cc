#include "core/collective.h"

#include <chrono>
#include <cmath>
#include <string>

#include "core/check.h"
#include "core/fault.h"
#include "core/stopwatch.h"

namespace cyqr {

namespace {

std::chrono::steady_clock::time_point DeadlineAfterMillis(double millis) {
  const auto now = std::chrono::steady_clock::now();
  return now + std::chrono::microseconds(
                   static_cast<int64_t>(std::llround(millis * 1000.0)));
}

}  // namespace

Collective::Collective(const Options& options) : options_(options) {
  CYQR_CHECK(options.world_size >= 1);
  CYQR_CHECK(options.timeout_millis > 0.0);
}

Status Collective::Barrier() {
  const auto deadline = DeadlineAfterMillis(options_.timeout_millis);
  Stopwatch wait_watch;
  // The poison notification runs outside the lock scope: the fault-dump
  // hook may do file I/O, which must never happen with mu_ held.
  bool poisoned_here = false;
  Status result;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!abort_status_.ok()) return abort_status_;
    if (arrived_ + 1 == options_.world_size) {
      // Last arrival releases the whole generation.
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
      total_wait_millis_ += wait_watch.ElapsedMillis();
      return Status::OK();
    }
    ++arrived_;
    const int64_t gen = generation_;
    while (generation_ == gen && abort_status_.ok()) {
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout &&
          generation_ == gen && abort_status_.ok()) {
        // A peer is lost (crashed thread, livelock, scripted stall): poison
        // the collective instead of hanging — every other rank, including
        // one parked in StallUntilAborted, unwinds with this status.
        abort_status_ = Status::DeadlineExceeded(
            "collective barrier timed out after " +
            std::to_string(options_.timeout_millis) +
            " ms waiting for peers (" + std::to_string(arrived_) + "/" +
            std::to_string(options_.world_size) + " arrived)");
        poisoned_here = true;
        cv_.notify_all();
        break;
      }
    }
    total_wait_millis_ += wait_watch.ElapsedMillis();
    result = abort_status_;
  }
  if (poisoned_here) NotifyFaultDump("collective-timeout");
  return result;
}

void Collective::Abort(const Status& status) {
  if (status.ok()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!abort_status_.ok()) return;  // First abort wins.
    abort_status_ = status;
    cv_.notify_all();
  }
  // This call installed the poison: leave a post-mortem journal behind
  // (outside the lock — the hook may do file I/O).
  NotifyFaultDump("collective-abort");
}

Status Collective::StallUntilAborted() {
  const auto deadline = DeadlineAfterMillis(options_.timeout_millis);
  bool poisoned_here = false;
  Status result;
  {
    std::unique_lock<std::mutex> lock(mu_);
    while (abort_status_.ok()) {
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout &&
          abort_status_.ok()) {
        // No peer aborted us (world_size == 1, or everyone is stalled):
        // self-abort so the stall can never become a permanent hang.
        abort_status_ = Status::DeadlineExceeded(
            "stalled rank saw no abort within " +
            std::to_string(options_.timeout_millis) + " ms; self-aborting");
        poisoned_here = true;
        cv_.notify_all();
      }
    }
    result = abort_status_;
  }
  if (poisoned_here) NotifyFaultDump("collective-stall-self-abort");
  return result;
}

Status Collective::AllReduceSum(int rank,
                                std::vector<std::vector<float>>* slots) {
  CYQR_CHECK(slots != nullptr);
  CYQR_CHECK(rank >= 0 && rank < options_.world_size);
  const size_t num_slots = slots->size();
  const size_t n = num_slots == 0 ? 0 : (*slots)[0].size();
  for (const std::vector<float>& slot : *slots) {
    CYQR_CHECK_EQ(slot.size(), n);
  }
  // Each element is folded pairwise along the fixed slot-index tree, the
  // same additions in the same order whichever rank's slice holds it, so
  // only *which thread* adds an element varies with K — never the bits.
  const size_t world = static_cast<size_t>(options_.world_size);
  const size_t begin = n * static_cast<size_t>(rank) / world;
  const size_t end = n * static_cast<size_t>(rank + 1) / world;
  for (size_t stride = 1; stride < num_slots; stride *= 2) {
    for (size_t j = 0; j + stride < num_slots; j += 2 * stride) {
      float* __restrict dst = (*slots)[j].data();
      const float* __restrict src = (*slots)[j + stride].data();
      for (size_t e = begin; e < end; ++e) dst[e] += src[e];
    }
  }
  // Publish every rank's slice of slot 0 to every rank.
  return Barrier();
}

double Collective::total_wait_millis() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_wait_millis_;
}

int64_t Collective::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

Status Collective::abort_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return abort_status_;
}

}  // namespace cyqr
