// The small trained models the decoder tests run on.

#ifndef CYCLEQR_TESTS_DECODE_TINY_MODELS_H_
#define CYCLEQR_TESTS_DECODE_TINY_MODELS_H_

#include <vector>

#include "nmt/seq2seq.h"
#include "rewrite/trainer.h"

namespace cyqr {

inline Seq2SeqConfig TinyDecodeConfig() {
  Seq2SeqConfig config;
  config.vocab_size = 20;
  config.d_model = 16;
  config.num_heads = 2;
  config.ff_hidden = 32;
  config.num_layers = 1;
  config.dropout = 0.0f;
  return config;
}

/// Fits `model` to three tiny pairs so decoding has meaningful structure,
/// then switches it to inference mode.
inline void TrainOnTinyPairs(Seq2SeqModel& model) {
  const std::vector<SeqPair> data = {
      {{4, 5}, {10, 11, 12}},
      {{6, 7}, {13, 14}},
      {{8}, {15, 16}},
  };
  SupervisedTrainOptions options;
  options.max_steps = 200;
  options.batch_size = 3;
  TrainSupervised(model, data, options);
  model.SetTraining(false);
}

}  // namespace cyqr

#endif  // CYCLEQR_TESTS_DECODE_TINY_MODELS_H_
