#ifndef CYCLEQR_NN_ATTENTION_H_
#define CYCLEQR_NN_ATTENTION_H_

#include <cstdint>
#include <vector>

#include "nn/layers.h"

namespace cyqr {

/// Multi-head scaled dot-product attention ("Attention Is All You Need").
///
/// The additive mask (optional) has one float per [B*H, Tq, Tk] score; use 0
/// for allowed positions and a large negative value for disallowed ones
/// (helpers in nmt/batch.h build causal and padding masks).
///
/// When `capture_weights` is enabled, the post-softmax attention of the last
/// Forward/Attend call is retained head-averaged as a [Tq x Tk] matrix for the
/// first batch element — this feeds the paper's Figure 6 heat maps.
class MultiHeadAttention : public Module {
 public:
  MultiHeadAttention(int64_t dim, int64_t num_heads, Rng& rng);

  /// Key and value heads, each [B*H, Tk, dh].
  struct KeyValueHeads {
    Tensor keys;
    Tensor values;
  };

  /// query: [B, Tq, D]; keys/values: [B, Tk, D]. Returns [B, Tq, D].
  /// Same as Attend(query, ProjectKeysValues(keys_values), mask).
  Tensor Forward(const Tensor& query, const Tensor& keys_values,
                 const std::vector<float>& mask = {}) const;

  /// Projects keys/values [B, Tk, D] to their heads.
  KeyValueHeads ProjectKeysValues(const Tensor& keys_values) const;

  /// Attends query [B, Tq, D] over heads already projected, e.g. the ones
  /// incremental decoding caches. Returns [B, Tq, D].
  Tensor Attend(const Tensor& query, const KeyValueHeads& kv,
                const std::vector<float>& mask = {}) const;

  void set_capture_weights(bool capture) { capture_weights_ = capture; }

  /// Head-averaged attention weights of the last Attend (batch element 0),
  /// row-major [Tq, Tk]; empty until a captured Attend has run.
  const std::vector<float>& last_attention() const { return last_attention_; }
  int64_t last_tq() const { return last_tq_; }
  int64_t last_tk() const { return last_tk_; }

  int64_t num_heads() const { return num_heads_; }

 private:
  int64_t dim_;
  int64_t num_heads_;
  int64_t head_dim_;
  Linear wq_;
  Linear wk_;
  Linear wv_;
  Linear wo_;
  bool capture_weights_ = false;
  mutable std::vector<float> last_attention_;
  mutable int64_t last_tq_ = 0;
  mutable int64_t last_tk_ = 0;
};

}  // namespace cyqr

#endif  // CYCLEQR_NN_ATTENTION_H_
