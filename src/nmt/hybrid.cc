#include "nmt/hybrid.h"

#include "core/check.h"

namespace cyqr {

HybridSeq2Seq::HybridSeq2Seq(const Seq2SeqConfig& config,
                             CellType decoder_cell, Rng& rng)
    : config_(config),
      encoder_(config, rng),
      decoder_(config, decoder_cell, AttentionKind::kDot, rng),
      bridge_(config.d_model, config.d_model, rng) {
  RegisterModule(&encoder_);
  RegisterModule(&decoder_);
  RegisterModule(&bridge_);
}

Tensor HybridSeq2Seq::InitialHidden(
    const Tensor& memory, const std::vector<float>& src_mask) const {
  const int64_t b = memory.shape().dim(0);
  const int64_t ts = memory.shape().dim(1);
  // Constant pooling weights: mask / valid-length per row.
  std::vector<float> w(b * ts, 0.0f);
  for (int64_t bi = 0; bi < b; ++bi) {
    float len = 0.0f;
    for (int64_t t = 0; t < ts; ++t) len += src_mask[bi * ts + t];
    if (len == 0.0f) continue;
    for (int64_t t = 0; t < ts; ++t) {
      w[bi * ts + t] = src_mask[bi * ts + t] / len;
    }
  }
  Tensor weights = Tensor::FromData(Shape{b, 1, ts}, std::move(w));
  Tensor pooled = Reshape(MatMul(weights, memory),
                          Shape{b, config_.d_model});  // [B, D]
  return TanhOp(bridge_.Forward(pooled));
}

Tensor HybridSeq2Seq::Forward(const EncodedBatch& src,
                              const EncodedBatch& tgt_in) const {
  CYQR_CHECK_EQ(src.batch, tgt_in.batch);
  Tensor memory = encoder_.Forward(src);
  Tensor h0 = InitialHidden(memory, src.mask);
  return decoder_.Forward(memory, src.mask, h0, tgt_in);
}

std::unique_ptr<DecodeState> HybridSeq2Seq::StartDecode(
    const std::vector<int32_t>& src_ids) const {
  NoGradGuard no_grad;
  auto state = std::make_unique<RnnDecodeState>();
  const EncodedBatch src = PadBatch({src_ids});
  state->memory = encoder_.Forward(src);
  state->memory_proj = decoder_.ProjectMemory(state->memory);
  state->src_mask = src.mask;
  state->hidden = decoder_.cell().StateFromOutput(
      InitialHidden(state->memory, src.mask));
  return state;
}

std::vector<float> HybridSeq2Seq::Step(DecodeState& state,
                                       int32_t token) const {
  return std::move(StepBatch({&state}, {token}).front());
}

std::vector<std::vector<float>> HybridSeq2Seq::StepBatch(
    const std::vector<DecodeState*>& states,
    const std::vector<int32_t>& tokens) const {
  return StepRnnDecodeStates(decoder_, states, tokens);
}

}  // namespace cyqr
