#include "nmt/transformer.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"

namespace cyqr {

namespace {

/// Incremental decoding state: each decoder layer's cache and the number of
/// positions fed so far. A Step computes one row per layer against the
/// cache instead of re-running the decoder over the prefix. Clone() copies
/// the handles: a Step replaces cached tensors rather than writing into
/// them, so forked hypotheses share the heads of their common prefix.
class TransformerDecodeState : public DecodeState {
 public:
  std::vector<TransformerDecoderLayer::Cache> layers;
  int64_t position = 0;

  std::unique_ptr<DecodeState> Clone() const override {
    return std::make_unique<TransformerDecodeState>(*this);
  }
};

using KeyValueHeads = MultiHeadAttention::KeyValueHeads;

/// `cached` [H, T, dh] with position T appended: heads [seq * H, seq * H + H)
/// of `rows` [k * H, 1, dh], the new position of every sequence in a batch.
/// An undefined `cached` holds no positions.
Tensor AppendPosition(const Tensor& cached, const Tensor& rows, int64_t seq,
                      int64_t h) {
  const int64_t dh = rows.shape().dim(2);
  const int64_t t = cached.defined() ? cached.shape().dim(1) : 0;
  if (t == 0 && rows.shape().dim(0) == h) return rows;
  const float* row = rows.data() + seq * h * dh;
  std::vector<float> out(static_cast<size_t>(h * (t + 1) * dh));
  for (int64_t hi = 0; hi < h; ++hi) {
    if (t > 0) {
      std::copy_n(cached.data() + hi * t * dh, t * dh,
                  out.data() + hi * (t + 1) * dh);
    }
    std::copy_n(row + hi * dh, dh, out.data() + (hi * (t + 1) + t) * dh);
  }
  return Tensor::FromData(Shape{h, t + 1, dh}, std::move(out));
}

/// The heads of every sequence ([H, T, dh] each, one T for all) stacked in
/// order to [k * H, T, dh].
KeyValueHeads StackHeads(const std::vector<const KeyValueHeads*>& parts) {
  std::vector<const Tensor*> keys;
  std::vector<const Tensor*> values;
  for (const KeyValueHeads* part : parts) {
    keys.push_back(&part->keys);
    values.push_back(&part->values);
  }
  return {StackStates(keys), StackStates(values)};
}

}  // namespace

TransformerEncoderLayer::TransformerEncoderLayer(const Seq2SeqConfig& config,
                                                 Rng& rng)
    : self_attn_(config.d_model, config.num_heads, rng),
      ff_(config.d_model, config.ff_hidden, rng),
      norm1_(config.d_model),
      norm2_(config.d_model),
      dropout_(config.dropout, rng) {
  RegisterModule(&self_attn_);
  RegisterModule(&ff_);
  RegisterModule(&norm1_);
  RegisterModule(&norm2_);
  RegisterModule(&dropout_);
}

Tensor TransformerEncoderLayer::Forward(
    const Tensor& x, const std::vector<float>& pad_mask) const {
  Tensor h = norm1_.Forward(x);
  Tensor y = Add(x, dropout_.Forward(self_attn_.Forward(h, h, pad_mask)));
  Tensor h2 = norm2_.Forward(y);
  return Add(y, dropout_.Forward(ff_.Forward(h2)));
}

TransformerDecoderLayer::TransformerDecoderLayer(const Seq2SeqConfig& config,
                                                 Rng& rng)
    : self_attn_(config.d_model, config.num_heads, rng),
      cross_attn_(config.d_model, config.num_heads, rng),
      ff_(config.d_model, config.ff_hidden, rng),
      norm1_(config.d_model),
      norm2_(config.d_model),
      norm3_(config.d_model),
      dropout_(config.dropout, rng) {
  RegisterModule(&self_attn_);
  RegisterModule(&cross_attn_);
  RegisterModule(&ff_);
  RegisterModule(&norm1_);
  RegisterModule(&norm2_);
  RegisterModule(&norm3_);
  RegisterModule(&dropout_);
}

Tensor TransformerDecoderLayer::Forward(
    const Tensor& x, const Tensor& memory,
    const std::vector<float>& causal_mask,
    const std::vector<float>& memory_mask) const {
  Tensor h = norm1_.Forward(x);
  return Block(x, h, self_attn_.ProjectKeysValues(h), causal_mask,
               cross_attn_.ProjectKeysValues(memory), memory_mask);
}

Tensor TransformerDecoderLayer::Step(const Tensor& x,
                                     const std::vector<Cache*>& caches) const {
  CYQR_CHECK_EQ(x.shape().dim(0), static_cast<int64_t>(caches.size()));
  Tensor h = norm1_.Forward(x);
  const KeyValueHeads rows = self_attn_.ProjectKeysValues(h);
  const int64_t heads = self_attn_.num_heads();
  std::vector<const KeyValueHeads*> self(caches.size());
  std::vector<const KeyValueHeads*> memory(caches.size());
  for (size_t i = 0; i < caches.size(); ++i) {
    Cache& cache = *caches[i];
    const int64_t seq = static_cast<int64_t>(i);
    cache.self = {AppendPosition(cache.self.keys, rows.keys, seq, heads),
                  AppendPosition(cache.self.values, rows.values, seq, heads)};
    self[i] = &cache.self;
    memory[i] = &cache.memory;
  }
  // Each new position sees every cached one of its own sequence, and a lone
  // source has no padding: both masks would add only zeros, which leave
  // softmax's bits unchanged. Stacked, sequence i owns heads
  // [i * H, i * H + H) of every attention product.
  return Block(x, h, StackHeads(self), {}, StackHeads(memory), {});
}

Tensor TransformerDecoderLayer::Block(
    const Tensor& x, const Tensor& h,
    const MultiHeadAttention::KeyValueHeads& self_kv,
    const std::vector<float>& self_mask,
    const MultiHeadAttention::KeyValueHeads& memory_kv,
    const std::vector<float>& memory_mask) const {
  Tensor y =
      Add(x, dropout_.Forward(self_attn_.Attend(h, self_kv, self_mask)));
  Tensor h2 = norm2_.Forward(y);
  Tensor z =
      Add(y, dropout_.Forward(cross_attn_.Attend(h2, memory_kv, memory_mask)));
  Tensor h3 = norm3_.Forward(z);
  return Add(z, dropout_.Forward(ff_.Forward(h3)));
}

TransformerEncoder::TransformerEncoder(const Seq2SeqConfig& config, Rng& rng)
    : config_(config),
      embedding_(config.vocab_size, config.d_model, rng),
      dropout_(config.dropout, rng),
      final_norm_(config.d_model) {
  CYQR_CHECK_GT(config.vocab_size, 0);
  RegisterModule(&embedding_);
  RegisterModule(&dropout_);
  for (int64_t i = 0; i < config.num_layers; ++i) {
    layers_.push_back(std::make_unique<TransformerEncoderLayer>(config, rng));
    RegisterModule(layers_.back().get());
  }
  RegisterModule(&final_norm_);
}

Tensor TransformerEncoder::Forward(const EncodedBatch& src) const {
  const float scale = std::sqrt(static_cast<float>(config_.d_model));
  Tensor x = Scale(embedding_.Forward(src.ids, src.batch, src.max_len), scale);
  x = dropout_.Forward(AddPositionalEncoding(x));
  const std::vector<float> pad_mask = MakePaddingMask(
      src.batch, config_.num_heads, src.max_len, src.max_len, src.mask);
  for (const auto& layer : layers_) {
    x = layer->Forward(x, pad_mask);
  }
  return final_norm_.Forward(x);
}

TransformerSeq2Seq::TransformerSeq2Seq(const Seq2SeqConfig& config, Rng& rng)
    : config_(config),
      encoder_(config, rng),
      tgt_embedding_(config.vocab_size, config.d_model, rng),
      dropout_(config.dropout, rng),
      final_norm_(config.d_model),
      output_proj_(config.d_model, config.vocab_size, rng) {
  RegisterModule(&encoder_);
  RegisterModule(&tgt_embedding_);
  RegisterModule(&dropout_);
  for (int64_t i = 0; i < config.num_layers; ++i) {
    decoder_layers_.push_back(
        std::make_unique<TransformerDecoderLayer>(config, rng));
    RegisterModule(decoder_layers_.back().get());
  }
  RegisterModule(&final_norm_);
  RegisterModule(&output_proj_);
}

Tensor TransformerSeq2Seq::EmbedTarget(const std::vector<int32_t>& ids,
                                       int64_t batch, int64_t len,
                                       int64_t offset) const {
  const float scale = std::sqrt(static_cast<float>(config_.d_model));
  Tensor x = Scale(tgt_embedding_.Forward(ids, batch, len), scale);
  return dropout_.Forward(AddPositionalEncoding(x, offset));
}

Tensor TransformerSeq2Seq::Decode(const Tensor& memory,
                                  const std::vector<float>& src_mask,
                                  const EncodedBatch& tgt_in) const {
  const int64_t ts = memory.shape().dim(1);
  Tensor x = EmbedTarget(tgt_in.ids, tgt_in.batch, tgt_in.max_len, 0);
  const std::vector<float> causal = MakeCausalMask(
      tgt_in.batch, config_.num_heads, tgt_in.max_len, tgt_in.mask);
  const std::vector<float> mem_mask = MakePaddingMask(
      tgt_in.batch, config_.num_heads, tgt_in.max_len, ts, src_mask);
  for (const auto& layer : decoder_layers_) {
    x = layer->Forward(x, memory, causal, mem_mask);
  }
  return output_proj_.Forward(final_norm_.Forward(x));
}

Tensor TransformerSeq2Seq::Forward(const EncodedBatch& src,
                                   const EncodedBatch& tgt_in) const {
  CYQR_CHECK_EQ(src.batch, tgt_in.batch);
  Tensor memory = encoder_.Forward(src);
  return Decode(memory, src.mask, tgt_in);
}

std::unique_ptr<DecodeState> TransformerSeq2Seq::StartDecode(
    const std::vector<int32_t>& src_ids) const {
  NoGradGuard no_grad;
  auto state = std::make_unique<TransformerDecodeState>();
  const Tensor memory = encoder_.Forward(PadBatch({src_ids}));
  for (const auto& layer : decoder_layers_) {
    state->layers.push_back(
        {{}, layer->cross_attention().ProjectKeysValues(memory)});
  }
  return state;
}

std::vector<float> TransformerSeq2Seq::Step(DecodeState& state,
                                            int32_t token) const {
  return std::move(StepBatch({&state}, {token}).front());
}

std::vector<std::vector<float>> TransformerSeq2Seq::StepBatch(
    const std::vector<DecodeState*>& states,
    const std::vector<int32_t>& tokens) const {
  NoGradGuard no_grad;
  CYQR_CHECK(!states.empty());
  CYQR_CHECK_EQ(states.size(), tokens.size());
  const int64_t k = static_cast<int64_t>(states.size());
  const int64_t position =
      static_cast<TransformerDecodeState*>(states[0])->position;
  std::vector<TransformerDecodeState*> batch(states.size());
  for (size_t i = 0; i < states.size(); ++i) {
    batch[i] = static_cast<TransformerDecodeState*>(states[i]);
    CYQR_CHECK_EQ(batch[i]->position, position);
    ++batch[i]->position;
  }
  Tensor x = EmbedTarget(tokens, k, 1, position);  // [k, 1, D]
  std::vector<TransformerDecoderLayer::Cache*> caches(states.size());
  for (size_t l = 0; l < decoder_layers_.size(); ++l) {
    for (size_t i = 0; i < batch.size(); ++i) caches[i] = &batch[i]->layers[l];
    x = decoder_layers_[l]->Step(x, caches);
  }
  Tensor logits = output_proj_.Forward(final_norm_.Forward(x));  // [k, 1, V]
  return SplitRows(logits);
}

void TransformerSeq2Seq::SetCaptureAttention(bool capture) {
  CYQR_CHECK(!decoder_layers_.empty());
  decoder_layers_.back()->cross_attention().set_capture_weights(capture);
}

const std::vector<float>& TransformerSeq2Seq::LastCrossAttention() const {
  return decoder_layers_.back()->cross_attention().last_attention();
}

int64_t TransformerSeq2Seq::LastAttentionRows() const {
  return decoder_layers_.back()->cross_attention().last_tq();
}

int64_t TransformerSeq2Seq::LastAttentionCols() const {
  return decoder_layers_.back()->cross_attention().last_tk();
}

}  // namespace cyqr
