#ifndef CYCLEQR_NMT_TRANSFORMER_H_
#define CYCLEQR_NMT_TRANSFORMER_H_

#include <memory>
#include <string>
#include <vector>

#include "nmt/seq2seq.h"
#include "nn/attention.h"
#include "nn/layers.h"

namespace cyqr {

/// One pre-norm transformer encoder block: self-attention + feed-forward,
/// each with residual connection.
class TransformerEncoderLayer : public Module {
 public:
  TransformerEncoderLayer(const Seq2SeqConfig& config, Rng& rng);

  Tensor Forward(const Tensor& x, const std::vector<float>& pad_mask) const;

 private:
  MultiHeadAttention self_attn_;
  FeedForward ff_;
  LayerNorm norm1_;
  LayerNorm norm2_;
  Dropout dropout_;
};

/// One pre-norm transformer decoder block: causal self-attention,
/// cross-attention over the encoder memory, feed-forward.
class TransformerDecoderLayer : public Module {
 public:
  TransformerDecoderLayer(const Seq2SeqConfig& config, Rng& rng);

  /// What incremental decoding keeps per layer: the self-attention heads
  /// of every position fed so far ([H, T, dh] each, empty before the first
  /// Step) and the cross-attention heads of the encoder memory.
  struct Cache {
    MultiHeadAttention::KeyValueHeads self;
    MultiHeadAttention::KeyValueHeads memory;
  };

  Tensor Forward(const Tensor& x, const Tensor& memory,
                 const std::vector<float>& causal_mask,
                 const std::vector<float>& memory_mask) const;

  /// Runs the block on one new position of k unpadded sequences at once:
  /// row i of x [k, 1, D] belongs to the sequence of caches[i], and its
  /// self-attention heads are appended to that cache. Row i of the result
  /// is bit-identical to that position's row of Forward over sequence i's
  /// prefix, whatever k is.
  Tensor Step(const Tensor& x, const std::vector<Cache*>& caches) const;

  MultiHeadAttention& cross_attention() { return cross_attn_; }
  const MultiHeadAttention& cross_attention() const { return cross_attn_; }

 private:
  /// The rest of the block once `h` = norm1(x) is known: self-attention of
  /// `h` over `self_kv`, cross-attention over `memory_kv`, feed-forward,
  /// each with its residual. Forward and Step differ only in the heads.
  Tensor Block(const Tensor& x, const Tensor& h,
               const MultiHeadAttention::KeyValueHeads& self_kv,
               const std::vector<float>& self_mask,
               const MultiHeadAttention::KeyValueHeads& memory_kv,
               const std::vector<float>& memory_mask) const;

  MultiHeadAttention self_attn_;
  MultiHeadAttention cross_attn_;
  FeedForward ff_;
  LayerNorm norm1_;
  LayerNorm norm2_;
  LayerNorm norm3_;
  Dropout dropout_;
};

/// Stack of encoder layers with shared token embedding + sinusoidal
/// positions. Reused standalone by the hybrid model (transformer encoder +
/// RNN decoder, paper Section III-G).
class TransformerEncoder : public Module {
 public:
  TransformerEncoder(const Seq2SeqConfig& config, Rng& rng);

  /// Returns the encoder memory [B, Ts, D].
  Tensor Forward(const EncodedBatch& src) const;

  int64_t d_model() const { return config_.d_model; }
  const Seq2SeqConfig& config() const { return config_; }

 private:
  Seq2SeqConfig config_;
  Embedding embedding_;
  Dropout dropout_;
  std::vector<std::unique_ptr<TransformerEncoderLayer>> layers_;
  LayerNorm final_norm_;
};

/// Full transformer encoder-decoder NMT model (Vaswani et al.), the
/// paper's primary architecture for both translation directions.
class TransformerSeq2Seq : public Seq2SeqModel {
 public:
  TransformerSeq2Seq(const Seq2SeqConfig& config, Rng& rng);

  Tensor Forward(const EncodedBatch& src,
                 const EncodedBatch& tgt_in) const override;
  std::unique_ptr<DecodeState> StartDecode(
      const std::vector<int32_t>& src_ids) const override;
  std::vector<float> Step(DecodeState& state, int32_t token) const override;
  /// One step of every state. The states must all have been fed the same
  /// number of tokens; they may come from different sources of one length.
  std::vector<std::vector<float>> StepBatch(
      const std::vector<DecodeState*>& states,
      const std::vector<int32_t>& tokens) const override;
  int64_t vocab_size() const override { return config_.vocab_size; }
  std::string name() const override { return "transformer"; }

  /// Enables attention capture on the last decoder layer's cross-attention
  /// (Figure 6 heat maps). After a Forward, LastCrossAttention() returns
  /// the head-averaged [T_tgt, T_src] weights of batch element 0; after a
  /// Step, the one [1, T_src] row of the position it fed (of the first
  /// state, after a StepBatch).
  void SetCaptureAttention(bool capture);
  const std::vector<float>& LastCrossAttention() const;
  int64_t LastAttentionRows() const;
  int64_t LastAttentionCols() const;

  const Seq2SeqConfig& config() const { return config_; }

 private:
  Tensor Decode(const Tensor& memory, const std::vector<float>& src_mask,
                const EncodedBatch& tgt_in) const;
  /// Scaled target embeddings plus the positions from `offset`, through
  /// dropout: [batch, len, D].
  Tensor EmbedTarget(const std::vector<int32_t>& ids, int64_t batch,
                     int64_t len, int64_t offset) const;

  Seq2SeqConfig config_;
  TransformerEncoder encoder_;
  Embedding tgt_embedding_;
  Dropout dropout_;
  std::vector<std::unique_ptr<TransformerDecoderLayer>> decoder_layers_;
  LayerNorm final_norm_;
  Linear output_proj_;
};

}  // namespace cyqr

#endif  // CYCLEQR_NMT_TRANSFORMER_H_
