#include "nmt/rnn.h"

#include <cmath>

#include "core/check.h"
#include "text/vocabulary.h"

namespace cyqr {

namespace {

/// Column t of a padded id batch, one id per row.
std::vector<int32_t> Column(const EncodedBatch& batch, int64_t t) {
  std::vector<int32_t> out(batch.batch);
  for (int64_t b = 0; b < batch.batch; ++b) {
    out[b] = batch.ids[b * batch.max_len + t];
  }
  return out;
}

/// Blends h_new into h_prev where mask==1: h = m*h_new + (1-m)*h_prev.
/// Keeps padded rows' hidden state frozen.
Tensor MaskBlend(const Tensor& h_new, const Tensor& h_prev,
                 const std::vector<float>& row_mask) {
  const int64_t b = h_new.shape().dim(0);
  const int64_t d = h_new.shape().dim(1);
  std::vector<float> m(b * d);
  std::vector<float> inv(b * d);
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t j = 0; j < d; ++j) {
      m[bi * d + j] = row_mask[bi];
      inv[bi * d + j] = 1.0f - row_mask[bi];
    }
  }
  Tensor mt = Tensor::FromData(Shape{b, d}, std::move(m));
  Tensor it = Tensor::FromData(Shape{b, d}, std::move(inv));
  return Add(Mul(h_new, mt), Mul(h_prev, it));
}

/// [B, 1, D] <-> [B, D] helpers.
Tensor To3D(const Tensor& x) {
  return Reshape(x, Shape{x.shape().dim(0), 1, x.shape().dim(1)});
}
Tensor To2D(const Tensor& x) {
  return Reshape(x, Shape{x.shape().dim(0), x.shape().dim(2)});
}

}  // namespace

const char* CellTypeName(CellType type) {
  switch (type) {
    case CellType::kRnn:
      return "rnn";
    case CellType::kGru:
      return "gru";
    case CellType::kLstm:
      return "lstm";
  }
  return "unknown";
}

VanillaRnnCell::VanillaRnnCell(int64_t input_size, int64_t hidden_size,
                               Rng& rng)
    : hidden_size_(hidden_size),
      wx_(input_size, hidden_size, rng),
      wh_(hidden_size, hidden_size, rng, /*bias=*/false) {
  RegisterModule(&wx_);
  RegisterModule(&wh_);
}

Tensor VanillaRnnCell::Step(const Tensor& x, const Tensor& h) const {
  return TanhOp(Add(wx_.Forward(x), wh_.Forward(h)));
}

GruCell::GruCell(int64_t input_size, int64_t hidden_size, Rng& rng)
    : hidden_size_(hidden_size),
      wxz_(input_size, hidden_size, rng),
      whz_(hidden_size, hidden_size, rng, /*bias=*/false),
      wxr_(input_size, hidden_size, rng),
      whr_(hidden_size, hidden_size, rng, /*bias=*/false),
      wxn_(input_size, hidden_size, rng),
      whn_(hidden_size, hidden_size, rng, /*bias=*/false) {
  RegisterModule(&wxz_);
  RegisterModule(&whz_);
  RegisterModule(&wxr_);
  RegisterModule(&whr_);
  RegisterModule(&wxn_);
  RegisterModule(&whn_);
}

Tensor GruCell::Step(const Tensor& x, const Tensor& h) const {
  Tensor z = SigmoidOp(Add(wxz_.Forward(x), whz_.Forward(h)));
  Tensor r = SigmoidOp(Add(wxr_.Forward(x), whr_.Forward(h)));
  Tensor n = TanhOp(Add(wxn_.Forward(x), whn_.Forward(Mul(r, h))));
  // h' = (1 - z) * n + z * h.
  Tensor one_minus_z = AddScalar(Scale(z, -1.0f), 1.0f);
  return Add(Mul(one_minus_z, n), Mul(z, h));
}

LstmCell::LstmCell(int64_t input_size, int64_t hidden_size, Rng& rng)
    : hidden_size_(hidden_size),
      wxi_(input_size, hidden_size, rng),
      whi_(hidden_size, hidden_size, rng, /*bias=*/false),
      wxf_(input_size, hidden_size, rng),
      whf_(hidden_size, hidden_size, rng, /*bias=*/false),
      wxo_(input_size, hidden_size, rng),
      who_(hidden_size, hidden_size, rng, /*bias=*/false),
      wxg_(input_size, hidden_size, rng),
      whg_(hidden_size, hidden_size, rng, /*bias=*/false) {
  RegisterModule(&wxi_);
  RegisterModule(&whi_);
  RegisterModule(&wxf_);
  RegisterModule(&whf_);
  RegisterModule(&wxo_);
  RegisterModule(&who_);
  RegisterModule(&wxg_);
  RegisterModule(&whg_);
}

Tensor LstmCell::Step(const Tensor& x, const Tensor& state) const {
  Tensor h = SliceLastDim(state, 0, hidden_size_);
  Tensor c = SliceLastDim(state, hidden_size_, 2 * hidden_size_);
  Tensor i = SigmoidOp(Add(wxi_.Forward(x), whi_.Forward(h)));
  Tensor f = SigmoidOp(Add(wxf_.Forward(x), whf_.Forward(h)));
  Tensor o = SigmoidOp(Add(wxo_.Forward(x), who_.Forward(h)));
  Tensor g = TanhOp(Add(wxg_.Forward(x), whg_.Forward(h)));
  Tensor c_new = Add(Mul(f, c), Mul(i, g));
  Tensor h_new = Mul(o, TanhOp(c_new));
  return ConcatLastDim(h_new, c_new);
}

Tensor LstmCell::OutputFromState(const Tensor& state) const {
  return SliceLastDim(state, 0, hidden_size_);
}

Tensor LstmCell::StateFromOutput(const Tensor& hidden) const {
  const int64_t b = hidden.shape().dim(0);
  return ConcatLastDim(hidden, Tensor::Zeros(Shape{b, hidden_size_}));
}

std::unique_ptr<RnnCell> MakeCell(CellType type, int64_t input_size,
                                  int64_t hidden_size, Rng& rng) {
  switch (type) {
    case CellType::kRnn:
      return std::make_unique<VanillaRnnCell>(input_size, hidden_size, rng);
    case CellType::kGru:
      return std::make_unique<GruCell>(input_size, hidden_size, rng);
    case CellType::kLstm:
      return std::make_unique<LstmCell>(input_size, hidden_size, rng);
  }
  CYQR_CHECK_MSG(false, "unknown cell type");
  return nullptr;
}

RnnEncoder::RnnEncoder(const Seq2SeqConfig& config, CellType cell_type,
                       Rng& rng)
    : config_(config),
      cell_type_(cell_type),
      embedding_(config.vocab_size, config.d_model, rng),
      cell_(MakeCell(cell_type, config.d_model, config.d_model, rng)) {
  RegisterModule(&embedding_);
  RegisterModule(cell_.get());
}

RnnEncoder::Output RnnEncoder::Forward(const EncodedBatch& src) const {
  const int64_t b = src.batch;
  const int64_t d = config_.d_model;
  Tensor state = Tensor::Zeros(Shape{b, cell_->state_size()});
  std::vector<Tensor> steps;
  steps.reserve(src.max_len);
  for (int64_t t = 0; t < src.max_len; ++t) {
    Tensor x =
        To2D(embedding_.Forward(Column(src, t), b, 1));  // [B, D]
    Tensor state_new = cell_->Step(x, state);
    std::vector<float> row_mask(b);
    for (int64_t bi = 0; bi < b; ++bi) {
      row_mask[bi] = src.mask[bi * src.max_len + t];
    }
    state = MaskBlend(state_new, state, row_mask);
    steps.push_back(cell_->OutputFromState(state));
  }
  Output out;
  out.outputs = steps.empty() ? Tensor::Zeros(Shape{b, 0, d})
                              : StackRows(steps);
  out.final_hidden = cell_->OutputFromState(state);
  return out;
}

RnnDecoder::RnnDecoder(const Seq2SeqConfig& config, CellType cell_type,
                       AttentionKind attention, Rng& rng)
    : config_(config),
      cell_type_(cell_type),
      attention_(attention),
      embedding_(config.vocab_size, config.d_model, rng),
      cell_(MakeCell(cell_type, 2 * config.d_model, config.d_model, rng)),
      attn_mem_(config.d_model, config.d_model, rng),
      attn_h_(config.d_model, config.d_model, rng, /*bias=*/false),
      out_proj_(2 * config.d_model, config.vocab_size, rng) {
  RegisterModule(&embedding_);
  RegisterModule(cell_.get());
  RegisterModule(&attn_mem_);
  RegisterModule(&attn_h_);
  attn_v_ = RegisterParameter(Tensor::Randn(
      Shape{config.d_model, 1}, rng,
      1.0f / std::sqrt(static_cast<float>(config.d_model))));
  RegisterModule(&out_proj_);
}

Tensor RnnDecoder::ProjectMemory(const Tensor& memory) const {
  if (attention_ == AttentionKind::kDot) return Tensor();
  return attn_mem_.Forward(memory);
}

Tensor RnnDecoder::AttendContext(const Tensor& memory,
                                 const std::vector<float>& src_mask,
                                 const Tensor& h,
                                 const Tensor& memory_proj) const {
  const int64_t b = memory.shape().dim(0);
  const int64_t ts = memory.shape().dim(1);
  Tensor scores;  // [B, 1, Ts]
  if (attention_ == AttentionKind::kDot) {
    scores = MatMul(To3D(h), memory, /*trans_a=*/false, /*trans_b=*/true);
  } else {
    // Additive: v^T tanh(W_m memory + W_h h).
    const Tensor projected =
        memory_proj.defined() ? memory_proj : ProjectMemory(memory);
    Tensor e = TanhOp(
        AddRowBroadcast(projected, attn_h_.Forward(h)));  // [B,Ts,D]
    scores = TransposeLast2(MatMul(e, attn_v_));         // [B,1,Ts]
  }
  std::vector<float> blocked(b * ts, 0.0f);
  for (int64_t i = 0; i < b * ts; ++i) {
    if (src_mask[i] == 0.0f) blocked[i] = -1e9f;
  }
  Tensor weights = Softmax(AddMask(scores, blocked));  // [B, 1, Ts]
  if (capture_weights_) {
    last_attention_.assign(weights.data(), weights.data() + ts);
  }
  return To2D(MatMul(weights, memory));  // [B, D]
}

Tensor RnnDecoder::Forward(const Tensor& memory,
                           const std::vector<float>& src_mask,
                           const Tensor& h0,
                           const EncodedBatch& tgt_in) const {
  const int64_t b = tgt_in.batch;
  Tensor state = cell_->StateFromOutput(h0);
  std::vector<Tensor> logit_steps;
  logit_steps.reserve(tgt_in.max_len);
  for (int64_t t = 0; t < tgt_in.max_len; ++t) {
    StepOutput step = StepState(memory, src_mask, state, Column(tgt_in, t));
    std::vector<float> row_mask(b);
    for (int64_t bi = 0; bi < b; ++bi) {
      row_mask[bi] = tgt_in.mask[bi * tgt_in.max_len + t];
    }
    state = MaskBlend(step.hidden, state, row_mask);
    logit_steps.push_back(step.logits);
  }
  return StackRows(logit_steps);  // [B, Tt, vocab]
}

RnnDecoder::StepOutput RnnDecoder::Step(
    const Tensor& memory, const std::vector<float>& src_mask, const Tensor& h,
    const std::vector<int32_t>& tokens) const {
  return StepState(memory, src_mask, cell_->StateFromOutput(h), tokens);
}

RnnDecoder::StepOutput RnnDecoder::StepState(
    const Tensor& memory, const std::vector<float>& src_mask,
    const Tensor& state, const std::vector<int32_t>& tokens,
    const Tensor& memory_proj) const {
  const int64_t b = state.shape().dim(0);
  Tensor h = cell_->OutputFromState(state);
  Tensor emb = To2D(embedding_.Forward(tokens, b, 1));       // [B, D]
  Tensor ctx = AttendContext(memory, src_mask, h, memory_proj);  // [B, D]
  Tensor x = ConcatLastDim(emb, ctx);                        // [B, 2D]
  Tensor state_new = cell_->Step(x, state);
  Tensor logits = out_proj_.Forward(
      ConcatLastDim(cell_->OutputFromState(state_new), ctx));
  return {logits, state_new};
}

RnnSeq2Seq::RnnSeq2Seq(const Seq2SeqConfig& config, CellType encoder_cell,
                       CellType decoder_cell, AttentionKind attention,
                       Rng& rng)
    : config_(config),
      encoder_(config, encoder_cell, rng),
      decoder_(config, decoder_cell, attention, rng),
      bridge_(config.d_model, config.d_model, rng) {
  RegisterModule(&encoder_);
  RegisterModule(&decoder_);
  RegisterModule(&bridge_);
}

Tensor RnnSeq2Seq::Forward(const EncodedBatch& src,
                           const EncodedBatch& tgt_in) const {
  CYQR_CHECK_EQ(src.batch, tgt_in.batch);
  RnnEncoder::Output enc = encoder_.Forward(src);
  Tensor h0 = TanhOp(bridge_.Forward(enc.final_hidden));
  return decoder_.Forward(enc.outputs, src.mask, h0, tgt_in);
}

std::unique_ptr<DecodeState> RnnSeq2Seq::StartDecode(
    const std::vector<int32_t>& src_ids) const {
  NoGradGuard no_grad;
  auto state = std::make_unique<RnnDecodeState>();
  const EncodedBatch src = PadBatch({src_ids});
  RnnEncoder::Output enc = encoder_.Forward(src);
  state->memory = enc.outputs;
  state->memory_proj = decoder_.ProjectMemory(state->memory);
  state->src_mask = src.mask;
  state->hidden = decoder_.cell().StateFromOutput(
      TanhOp(bridge_.Forward(enc.final_hidden)));
  return state;
}

std::vector<float> RnnSeq2Seq::Step(DecodeState& state, int32_t token) const {
  return std::move(StepBatch({&state}, {token}).front());
}

std::vector<std::vector<float>> RnnSeq2Seq::StepBatch(
    const std::vector<DecodeState*>& states,
    const std::vector<int32_t>& tokens) const {
  return StepRnnDecodeStates(decoder_, states, tokens);
}

std::string RnnSeq2Seq::name() const {
  std::string n = CellTypeName(encoder_.cell_type());
  n += "-";
  n += CellTypeName(decoder_.cell_type());
  n += decoder_.attention() == AttentionKind::kAdditive ? "+additive"
                                                        : "+dot";
  return n;
}

std::vector<std::vector<float>> StepRnnDecodeStates(
    const RnnDecoder& decoder, const std::vector<DecodeState*>& states,
    const std::vector<int32_t>& tokens) {
  NoGradGuard no_grad;
  CYQR_CHECK(!states.empty());
  CYQR_CHECK_EQ(states.size(), tokens.size());
  const int64_t k = static_cast<int64_t>(states.size());
  auto state = [&states](int64_t i) -> RnnDecodeState& {
    return *static_cast<RnnDecodeState*>(states[i]);
  };
  std::vector<const Tensor*> memory;
  std::vector<const Tensor*> memory_proj;
  std::vector<const Tensor*> hidden;
  std::vector<float> src_mask;
  for (int64_t i = 0; i < k; ++i) {
    memory.push_back(&state(i).memory);
    memory_proj.push_back(&state(i).memory_proj);
    hidden.push_back(&state(i).hidden);
    src_mask.insert(src_mask.end(), state(i).src_mask.begin(),
                    state(i).src_mask.end());
  }
  const RnnDecoder::StepOutput out = decoder.StepState(
      StackStates(memory), src_mask, StackStates(hidden), tokens,
      state(0).memory_proj.defined() ? StackStates(memory_proj) : Tensor());
  const int64_t width = out.hidden.shape().dim(1);
  for (int64_t i = 0; i < k; ++i) {
    state(i).hidden =
        k == 1 ? out.hidden
               : Tensor::FromData(
                     Shape{1, width},
                     std::vector<float>(out.hidden.data() + i * width,
                                        out.hidden.data() + (i + 1) * width));
  }
  return SplitRows(out.logits);
}

std::unique_ptr<DecodeState> RnnDecodeState::Clone() const {
  return std::make_unique<RnnDecodeState>(*this);
}

}  // namespace cyqr
