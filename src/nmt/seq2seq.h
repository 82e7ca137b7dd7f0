#ifndef CYCLEQR_NMT_SEQ2SEQ_H_
#define CYCLEQR_NMT_SEQ2SEQ_H_

#include <memory>
#include <string>
#include <vector>

#include "nmt/batch.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace cyqr {

/// Shared hyperparameters for all encoder-decoder architectures
/// (paper Table II, scaled to laptop size).
struct Seq2SeqConfig {
  int64_t vocab_size = 0;
  int64_t d_model = 32;
  int64_t num_heads = 2;
  int64_t ff_hidden = 64;
  int64_t num_layers = 1;
  float dropout = 0.1f;
};

/// Opaque per-sequence state for incremental decoding. A beam hypothesis
/// owns one state; Clone() forks it when a hypothesis branches.
class DecodeState {
 public:
  virtual ~DecodeState() = default;
  virtual std::unique_ptr<DecodeState> Clone() const = 0;
};

/// Interface implemented by every translation model in the library
/// (transformer, RNN/GRU with attention, hybrid). Two access patterns:
///
///  * Teacher-forced Forward for training / sequence scoring: takes the
///    padded source batch and the BOS-shifted target inputs, returns logits
///    [B, T_tgt, vocab]. Differentiable.
///  * Incremental decoding for generation: StartDecode runs the encoder,
///    then each Step feeds the previously generated token (first call:
///    kBosId) and returns next-token logits. StepBatch steps several
///    states at once, e.g. every live hypothesis of one decode. Never
///    records gradients.
class Seq2SeqModel : public Module {
 public:
  virtual Tensor Forward(const EncodedBatch& src,
                         const EncodedBatch& tgt_in) const = 0;

  virtual std::unique_ptr<DecodeState> StartDecode(
      const std::vector<int32_t>& src_ids) const = 0;

  /// Feeds `token` and returns raw (pre-softmax) logits for the next token.
  virtual std::vector<float> Step(DecodeState& state, int32_t token) const = 0;

  /// Feeds tokens[i] to *states[i] for every i and returns each state's
  /// logits, in order. Row i is bit-identical to Step(*states[i],
  /// tokens[i]): the library's models run one batched step, whose rows
  /// compute exactly what a one-state step does. This default steps the
  /// states one at a time.
  virtual std::vector<std::vector<float>> StepBatch(
      const std::vector<DecodeState*>& states,
      const std::vector<int32_t>& tokens) const;

  virtual int64_t vocab_size() const = 0;

  /// Short architecture tag for reports ("transformer", "rnn", ...).
  virtual std::string name() const = 0;
};

/// One tensor per state, all of one shape [n, ...], stacked in order to
/// [k * n, ...] for a batched step; a lone tensor is used as it is. A copy
/// that records nothing.
Tensor StackStates(const std::vector<const Tensor*>& parts);

/// The rows of a batched step's logits [k, ..., V]: one vector of V floats
/// per state.
std::vector<std::vector<float>> SplitRows(const Tensor& logits);

}  // namespace cyqr

#endif  // CYCLEQR_NMT_SEQ2SEQ_H_
