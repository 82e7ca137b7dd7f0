#ifndef CYCLEQR_NMT_RNN_H_
#define CYCLEQR_NMT_RNN_H_

#include <memory>
#include <string>
#include <vector>

#include "nmt/seq2seq.h"
#include "nn/layers.h"

namespace cyqr {

/// Recurrent cell families evaluated by the paper's latency study
/// (Table V) and serving simplification (Section III-G); LSTM [9] is the
/// related-work cell included for completeness.
enum class CellType { kRnn, kGru, kLstm };

/// Decoder attention over the encoder memory: dot-product (Luong-style) or
/// additive (Bahdanau-style [4]).
enum class AttentionKind { kDot, kAdditive };

const char* CellTypeName(CellType type);

/// Abstract one-step recurrent cell on batched rows. Cells carry an opaque
/// per-row state of `state_size()` floats; for plain RNN/GRU the state IS
/// the hidden output, for LSTM the state is [hidden ; cell-memory].
class RnnCell : public Module {
 public:
  /// x: [B, in], state: [B, state_size] -> new state [B, state_size].
  virtual Tensor Step(const Tensor& x, const Tensor& state) const = 0;
  virtual int64_t hidden_size() const = 0;
  virtual int64_t state_size() const { return hidden_size(); }
  /// The externally visible hidden output [B, hidden] of a state.
  virtual Tensor OutputFromState(const Tensor& state) const { return state; }
  /// Builds a full state from an initial hidden vector [B, hidden]
  /// (extra state components start at zero).
  virtual Tensor StateFromOutput(const Tensor& hidden) const {
    return hidden;
  }
};

/// Vanilla tanh RNN cell: h' = tanh(Wx x + Wh h + b).
class VanillaRnnCell : public RnnCell {
 public:
  VanillaRnnCell(int64_t input_size, int64_t hidden_size, Rng& rng);
  Tensor Step(const Tensor& x, const Tensor& h) const override;
  int64_t hidden_size() const override { return hidden_size_; }

 private:
  int64_t hidden_size_;
  Linear wx_;
  Linear wh_;
};

/// GRU cell (Cho et al.).
class GruCell : public RnnCell {
 public:
  GruCell(int64_t input_size, int64_t hidden_size, Rng& rng);
  Tensor Step(const Tensor& x, const Tensor& h) const override;
  int64_t hidden_size() const override { return hidden_size_; }

 private:
  int64_t hidden_size_;
  Linear wxz_, whz_;  // Update gate.
  Linear wxr_, whr_;  // Reset gate.
  Linear wxn_, whn_;  // Candidate.
};

/// LSTM cell (Hochreiter & Schmidhuber [9]). State layout: [h ; c].
class LstmCell : public RnnCell {
 public:
  LstmCell(int64_t input_size, int64_t hidden_size, Rng& rng);
  Tensor Step(const Tensor& x, const Tensor& state) const override;
  int64_t hidden_size() const override { return hidden_size_; }
  int64_t state_size() const override { return 2 * hidden_size_; }
  Tensor OutputFromState(const Tensor& state) const override;
  Tensor StateFromOutput(const Tensor& hidden) const override;

 private:
  int64_t hidden_size_;
  Linear wxi_, whi_;  // Input gate.
  Linear wxf_, whf_;  // Forget gate.
  Linear wxo_, who_;  // Output gate.
  Linear wxg_, whg_;  // Candidate.
};

std::unique_ptr<RnnCell> MakeCell(CellType type, int64_t input_size,
                                  int64_t hidden_size, Rng& rng);

/// Unidirectional recurrent encoder over embedded tokens. Padded positions
/// carry the previous hidden state through unchanged.
class RnnEncoder : public Module {
 public:
  RnnEncoder(const Seq2SeqConfig& config, CellType cell_type, Rng& rng);

  struct Output {
    Tensor outputs;       // [B, Ts, D] per-step hidden states.
    Tensor final_hidden;  // [B, D].
  };
  Output Forward(const EncodedBatch& src) const;

  CellType cell_type() const { return cell_type_; }

 private:
  Seq2SeqConfig config_;
  CellType cell_type_;
  Embedding embedding_;
  std::unique_ptr<RnnCell> cell_;
};

/// Recurrent decoder with attention over an arbitrary memory (works with
/// both recurrent and transformer encoders, enabling the paper's hybrid
/// model). Each step costs O(Ts * D) — constant in the number of already
/// generated tokens, which is why the paper swaps the transformer decoder
/// for an RNN decoder in serving.
class RnnDecoder : public Module {
 public:
  RnnDecoder(const Seq2SeqConfig& config, CellType cell_type,
             AttentionKind attention, Rng& rng);

  /// Teacher-forced decode: returns logits [B, Tt, vocab].
  Tensor Forward(const Tensor& memory, const std::vector<float>& src_mask,
                 const Tensor& h0, const EncodedBatch& tgt_in) const;

  struct StepOutput {
    Tensor logits;  // [B, vocab]
    Tensor hidden;  // [B, state_size] — the cell state after the step.
  };
  /// One decode step for the given token per batch row, starting from a
  /// bare hidden vector [B, D] (cell memory, if any, starts at zero).
  StepOutput Step(const Tensor& memory, const std::vector<float>& src_mask,
                  const Tensor& h, const std::vector<int32_t>& tokens) const;

  /// One decode step from a full cell state [B, state_size] — the form
  /// incremental decoding uses so LSTM memory persists across steps.
  /// `memory_proj`, when defined, is ProjectMemory(memory), computed once
  /// per decode; when undefined the step projects the memory itself.
  StepOutput StepState(const Tensor& memory,
                       const std::vector<float>& src_mask,
                       const Tensor& state,
                       const std::vector<int32_t>& tokens,
                       const Tensor& memory_proj = Tensor()) const;

  /// The additive attention's projection of `memory` [B, Ts, D], which
  /// depends on the memory alone; undefined for dot attention.
  Tensor ProjectMemory(const Tensor& memory) const;

  const RnnCell& cell() const { return *cell_; }

  CellType cell_type() const { return cell_type_; }
  AttentionKind attention() const { return attention_; }

  /// Attention weights of the last Step (batch row 0), length Ts.
  const std::vector<float>& last_attention() const { return last_attention_; }
  void set_capture_weights(bool capture) { capture_weights_ = capture; }

 private:
  Tensor AttendContext(const Tensor& memory,
                       const std::vector<float>& src_mask, const Tensor& h,
                       const Tensor& memory_proj) const;

  Seq2SeqConfig config_;
  CellType cell_type_;
  AttentionKind attention_;
  Embedding embedding_;
  std::unique_ptr<RnnCell> cell_;
  Linear attn_mem_;   // Additive attention memory projection.
  Linear attn_h_;     // Additive attention query projection.
  Tensor attn_v_;     // Additive attention scoring vector [D, 1].
  Linear out_proj_;   // [hidden ; context] -> vocab.
  bool capture_weights_ = false;
  mutable std::vector<float> last_attention_;
};

/// Recurrent encoder-decoder with attention — covers the paper's
/// "attention-based NMT [4]" baseline (GRU + additive attention), the pure
/// RNN serving model of Figure 9, and the per-component latency grid of
/// Table V.
class RnnSeq2Seq : public Seq2SeqModel {
 public:
  RnnSeq2Seq(const Seq2SeqConfig& config, CellType encoder_cell,
             CellType decoder_cell, AttentionKind attention, Rng& rng);

  Tensor Forward(const EncodedBatch& src,
                 const EncodedBatch& tgt_in) const override;
  std::unique_ptr<DecodeState> StartDecode(
      const std::vector<int32_t>& src_ids) const override;
  std::vector<float> Step(DecodeState& state, int32_t token) const override;
  std::vector<std::vector<float>> StepBatch(
      const std::vector<DecodeState*>& states,
      const std::vector<int32_t>& tokens) const override;
  int64_t vocab_size() const override { return config_.vocab_size; }
  std::string name() const override;

  const RnnDecoder& decoder() const { return decoder_; }
  RnnDecoder& decoder() { return decoder_; }

 private:
  Seq2SeqConfig config_;
  RnnEncoder encoder_;
  RnnDecoder decoder_;
  Linear bridge_;
};

/// Shared decode-state for all models that pair a memory tensor with a
/// recurrent decoder (RnnSeq2Seq and HybridSeq2Seq).
/// No step writes into a tensor the state holds (a step replaces
/// `hidden`), so a clone shares every handle.
class RnnDecodeState : public DecodeState {
 public:
  Tensor memory;                // [1, Ts, D]
  Tensor memory_proj;           // [1, Ts, D] RnnDecoder::ProjectMemory.
  std::vector<float> src_mask;  // [Ts]
  Tensor hidden;                // [1, state_size]

  std::unique_ptr<DecodeState> Clone() const override;
};

/// One decode step of k RnnDecodeStates through `decoder` as one batch:
/// their cell states stacked to [k, S] and their memories, projected
/// memories and masks to [k, Ts, D] (one Ts for all), then a single
/// StepState. Every row of it computes what a one-state step does, bit for
/// bit. Feeds tokens[i] to states[i], stores its new cell state and
/// returns its logits row.
std::vector<std::vector<float>> StepRnnDecodeStates(
    const RnnDecoder& decoder, const std::vector<DecodeState*>& states,
    const std::vector<int32_t>& tokens);

}  // namespace cyqr

#endif  // CYCLEQR_NMT_RNN_H_
