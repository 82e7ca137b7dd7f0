#ifndef CYCLEQR_CORE_COLLECTIVE_H_
#define CYCLEQR_CORE_COLLECTIVE_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/status.h"
#include "core/thread_annotations.h"

namespace cyqr {

/// Synchronization fabric for K synchronous data-parallel training ranks:
/// a generation-counted barrier with a timeout, a fail-fast abort channel,
/// and a deterministic all-reduce over caller-owned gradient slots.
///
/// Determinism contract. AllReduceSum folds the S slots pairwise along a
/// fixed binary tree over *slot indices* — slot j absorbs slot j+stride
/// for stride = 1, 2, 4, ... — so every element's floating-point summation
/// order depends only on S, never on the world size or on which rank
/// folds it. A K=1 and a K=4 run over the same slot contents produce
/// bit-identical sums in slot 0. (A rank-indexed tree would not:
/// ((g0+g1)+(g2+g3)) and (((g0+g1)+g2)+g3) differ in float arithmetic.)
///
/// Failure contract. Every blocking entry point returns a Status instead
/// of hanging: a rank that waits longer than `timeout_millis` at a barrier
/// aborts the collective with kDeadlineExceeded, and the abort fans out to
/// every other rank — including one parked in StallUntilAborted — so all
/// threads unwind promptly and stay joinable. After an abort the
/// collective is dead: every later call fails fast with the abort status.
///
/// Thread safety. All control state lives behind `mu_`. The slots passed
/// to AllReduceSum are intentionally *not* locked: each rank reads and
/// writes only its own element range of every slot, and the closing
/// barrier's mutex hand-off publishes every range to every rank, so the
/// access pattern is race-free by ownership + barrier ordering.
class Collective {
 public:
  struct Options {
    int world_size = 1;
    /// Longest any rank may wait at one barrier before declaring its
    /// peers lost and aborting the run with kDeadlineExceeded.
    double timeout_millis = 20000.0;
  };

  explicit Collective(const Options& options);
  Collective(const Collective&) = delete;
  Collective& operator=(const Collective&) = delete;

  int world_size() const { return options_.world_size; }

  /// Blocks until all `world_size` ranks arrive (or the collective
  /// aborts). OK when the whole world made it; kDeadlineExceeded when
  /// this rank timed out waiting (the abort is broadcast before
  /// returning); the abort status when another rank failed first.
  [[nodiscard]] Status Barrier();

  /// Poisons the collective with a non-OK status: every rank blocked in
  /// Barrier/StallUntilAborted wakes immediately and every later call
  /// fails fast with this status. First abort wins; OK input is ignored.
  void Abort(const Status& status);

  /// Parks the calling rank until the collective aborts — the fault
  /// hook behind `stall_worker_at_step`. The stalled rank stays blocked
  /// (and its thread joinable) while its peers time out at the next
  /// barrier; their abort releases it. A lone rank (world_size == 1, or
  /// every peer stalled) self-aborts after `timeout_millis` so the stall
  /// can never become a permanent hang. Returns the abort status.
  [[nodiscard]] Status StallUntilAborted();

  /// Cooperative deterministic tree-sum of `*slots` into (*slots)[0], in
  /// one pass and one barrier. Every rank must call with the same `slots`
  /// pointer, after a barrier that published the slot contents. Rank r
  /// folds elements [n*r/K, n*(r+1)/K) of all S slots along the slot
  /// tree, then all ranks meet once; on return (OK) every rank observes
  /// the completed sum. The result bits depend only on slots->size() and
  /// the slot contents — not on world size. All slots must have equal
  /// length.
  [[nodiscard]] Status AllReduceSum(int rank,
                                    std::vector<std::vector<float>>* slots);

  /// Cumulative wall time every rank has spent blocked at barriers, in
  /// milliseconds — the "collective wait" observability series.
  double total_wait_millis() const;

  /// Completed barrier generations so far — the /statusz "collective
  /// generation" signal (how many synchronized steps the world has made).
  int64_t generation() const;

  /// Abort status snapshot; OK while the collective is healthy.
  [[nodiscard]] Status abort_status() const;

 private:
  const Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int64_t generation_ CYQR_GUARDED_BY(mu_) = 0;
  int arrived_ CYQR_GUARDED_BY(mu_) = 0;
  Status abort_status_ CYQR_GUARDED_BY(mu_);
  double total_wait_millis_ CYQR_GUARDED_BY(mu_) = 0.0;
};

}  // namespace cyqr

#endif  // CYCLEQR_CORE_COLLECTIVE_H_
