#ifndef CYCLEQR_REWRITE_CYCLE_MODEL_H_
#define CYCLEQR_REWRITE_CYCLE_MODEL_H_

#include <memory>
#include <vector>

#include "rewrite/config.h"

namespace cyqr {

/// The pair of translation models at the heart of the paper: a forward
/// query-to-title model P(y|x; theta_f) and a backward title-to-query model
/// P(x|y; theta_b). They can be trained separately (Eq. 1-2) or jointly
/// with the cycle-consistency likelihood (Eq. 3); see CycleTrainer.
class CycleModel {
 public:
  /// `rng` seeds parameter init and stays wired into the dropout layers,
  /// so it must outlive the model.
  CycleModel(const CycleConfig& config, Rng& rng);

  Seq2SeqModel& forward() { return *forward_; }
  const Seq2SeqModel& forward() const { return *forward_; }
  Seq2SeqModel& backward() { return *backward_; }
  const Seq2SeqModel& backward() const { return *backward_; }

  const CycleConfig& config() const { return config_; }

  /// The Rng the model was built with, which the dropout layers draw
  /// from. The training engine re-seeds it from a (seed, step, shard)
  /// stream before each shard it computes on this model, so its state
  /// after CycleTrainer::Train() depends on the worker count K: nothing
  /// may draw from it and expect reproducible bits.
  Rng& rng() { return *rng_; }

  /// Trainable parameters of both models (forward first).
  std::vector<Tensor> Parameters() const;

  void SetTraining(bool training);

 private:
  CycleConfig config_;
  Rng* rng_;
  std::unique_ptr<Seq2SeqModel> forward_;
  std::unique_ptr<Seq2SeqModel> backward_;
};

}  // namespace cyqr

#endif  // CYCLEQR_REWRITE_CYCLE_MODEL_H_
