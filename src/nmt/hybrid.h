#ifndef CYCLEQR_NMT_HYBRID_H_
#define CYCLEQR_NMT_HYBRID_H_

#include <memory>
#include <string>
#include <vector>

#include "nmt/rnn.h"
#include "nmt/transformer.h"

namespace cyqr {

/// The paper's serving model (Section III-G, Figure 9): a transformer
/// encoder for accuracy paired with an RNN decoder for constant-time
/// decode steps. "The hybrid RNN model shows significantly better results
/// than the pure RNN model, which indicates that the transformer encoder is
/// still necessary."
class HybridSeq2Seq : public Seq2SeqModel {
 public:
  HybridSeq2Seq(const Seq2SeqConfig& config, CellType decoder_cell, Rng& rng);

  Tensor Forward(const EncodedBatch& src,
                 const EncodedBatch& tgt_in) const override;
  std::unique_ptr<DecodeState> StartDecode(
      const std::vector<int32_t>& src_ids) const override;
  std::vector<float> Step(DecodeState& state, int32_t token) const override;
  std::vector<std::vector<float>> StepBatch(
      const std::vector<DecodeState*>& states,
      const std::vector<int32_t>& tokens) const override;
  int64_t vocab_size() const override { return config_.vocab_size; }
  std::string name() const override { return "hybrid-transformer-rnn"; }

 private:
  /// Masked mean pooling of the memory bridges into the decoder's h0.
  Tensor InitialHidden(const Tensor& memory,
                       const std::vector<float>& src_mask) const;

  Seq2SeqConfig config_;
  TransformerEncoder encoder_;
  RnnDecoder decoder_;
  Linear bridge_;
};

}  // namespace cyqr

#endif  // CYCLEQR_NMT_HYBRID_H_
