#ifndef CYCLEQR_REWRITE_CHECKPOINT_H_
#define CYCLEQR_REWRITE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.h"
#include "core/status.h"
#include "nn/optimizer.h"
#include "rewrite/trainer.h"

namespace cyqr {

/// Everything beyond the model parameters that CycleTrainer needs to
/// resume a run bit-identically: the step counter, the batch-sampling RNG
/// stream (every decode and dropout stream derives from (seed, step,
/// shard)), the full Adam state, the Figure-7 metrics curve, the per-step
/// gradient-norm trace, and the guardrail counters.
struct TrainerCheckpoint {
  int64_t step = 0;
  RngState trainer_rng;
  int64_t consecutive_anomalies = 0;
  int64_t skipped_batches = 0;
  AdamState optimizer;
  std::vector<TrainMetricsPoint> curve;
  std::vector<double> grad_norms;
};

/// Writes parameters + trainer state to `path` atomically (write temp,
/// fsync, rename) with an integrity footer (payload length + FNV-1a
/// checksum), the same discipline as src/index/persist.cc. A crash at any
/// instant leaves either the previous checkpoint or the new one — never a
/// torn file.
[[nodiscard]] Status SaveTrainerCheckpoint(
    const std::vector<Tensor>& params, const TrainerCheckpoint& state,
    const std::string& path);

/// Loads a checkpoint back. All-or-nothing: the whole-file checksum is
/// verified before anything is parsed, and the destination tensors are
/// only written after every embedded section validates, so a corrupt or
/// truncated file never half-restores a trainer. A file of another format
/// version (version 1 also held the model's dropout stream) is
/// InvalidArgument.
[[nodiscard]] Status LoadTrainerCheckpoint(std::vector<Tensor> params,
                                           TrainerCheckpoint* state,
                                           const std::string& path);

/// Rotation helpers. Checkpoints in a directory are named
/// "ckpt-<12-digit step>.cyqc" so lexicographic order is step order.
std::string CheckpointFileName(int64_t step);

/// All checkpoint files in `dir` (full paths), sorted oldest-first.
/// An absent directory is an empty list, not an error.
[[nodiscard]] Result<std::vector<std::string>> ListCheckpointFiles(
    const std::string& dir);

/// Path of the newest checkpoint in `dir`; NotFound when there is none.
[[nodiscard]] Result<std::string> LatestCheckpointFile(
    const std::string& dir);

/// Deletes the oldest checkpoints until at most `keep` remain.
[[nodiscard]] Status PruneCheckpoints(const std::string& dir, int64_t keep);

}  // namespace cyqr

#endif  // CYCLEQR_REWRITE_CHECKPOINT_H_
