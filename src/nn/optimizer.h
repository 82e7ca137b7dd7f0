#ifndef CYCLEQR_NN_OPTIMIZER_H_
#define CYCLEQR_NN_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "core/status.h"
#include "tensor/tensor.h"

namespace cyqr {

/// Complete resumable state of an Adam optimizer: the bias-correction step
/// counter and the first/second moment vectors, one per parameter in
/// registration order. Exporting, persisting (see nn/serialize.h), and
/// importing this state reproduces the exact same next update — the
/// contract crash-safe training resume depends on.
struct AdamState {
  int64_t step = 0;
  std::vector<std::vector<float>> m;
  std::vector<std::vector<float>> v;
};

/// Adam optimizer (Kingma & Ba) over a fixed parameter list — the optimizer
/// the paper uses (lr 0.05 with Noam schedule, beta1 0.9, beta2 0.999,
/// eps 1e-8; Section IV-A).
class Adam {
 public:
  struct Options {
    float learning_rate = 1e-3f;
    float beta1 = 0.9f;
    float beta2 = 0.999f;
    float eps = 1e-8f;
  };

  Adam(std::vector<Tensor> params, const Options& options);

  /// Applies one update from the current gradients; parameters without a
  /// gradient buffer are skipped.
  void Step();

  /// One slice of update number `step` over the parameters laid end to end
  /// in registration order: updates the elements [begin, end), reading
  /// element e's gradient as (flat_grad[e] * grad_scale) * clip_scale, the
  /// float products a gradient load, a clip and Step() take. A clip_scale
  /// of 1 leaves every finite gradient as it is. Leaves step_count() alone,
  /// so slices over disjoint ranges may run on different threads at once;
  /// once every slice has run, set_step_count(step) commits the update.
  void StepRange(int64_t step, int64_t begin, int64_t end,
                 const float* flat_grad, float grad_scale, float clip_scale);

  /// Zeroes all parameter gradients.
  void ZeroGrad();

  /// Deep-copies the moment vectors and step counter.
  AdamState ExportState() const;

  /// Restores a previously exported state. Fails (leaving this optimizer
  /// untouched) unless the state's shape matches this optimizer's
  /// parameter list exactly.
  [[nodiscard]] Status ImportState(const AdamState& state);

  void set_learning_rate(float lr) { options_.learning_rate = lr; }
  float learning_rate() const { return options_.learning_rate; }
  int64_t step_count() const { return step_; }
  void set_step_count(int64_t step) { step_ = step; }

 private:
  std::vector<Tensor> params_;
  Options options_;
  int64_t step_ = 0;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

}  // namespace cyqr

#endif  // CYCLEQR_NN_OPTIMIZER_H_
