#ifndef CYCLEQR_TENSOR_OPS_H_
#define CYCLEQR_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "core/rng.h"
#include "tensor/tensor.h"

namespace cyqr {

// ---------------------------------------------------------------------------
// Elementwise arithmetic
// ---------------------------------------------------------------------------

/// a + b. Shapes must match, except the bias-broadcast case where b has rank
/// 1 and its length equals a's last dimension ([..., D] + [D]).
Tensor Add(const Tensor& a, const Tensor& b);

/// a - b (same shape).
Tensor Sub(const Tensor& a, const Tensor& b);

/// Elementwise a * b (same shape).
Tensor Mul(const Tensor& a, const Tensor& b);

/// a * s.
Tensor Scale(const Tensor& a, float s);

/// a + s.
Tensor AddScalar(const Tensor& a, float s);

// ---------------------------------------------------------------------------
// Linear algebra
// ---------------------------------------------------------------------------

/// Matrix multiply with optional logical transposes.
/// Supported shape combinations:
///   (m,k) x (k,n)        -> (m,n)
///   (B,m,k) x (k,n)      -> (B,m,n)   (shared right operand)
///   (B,m,k) x (B,k,n)    -> (B,m,n)   (batched)
/// Transposes apply to the trailing two dimensions.
Tensor MatMul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false);

/// x W + b for x [..., in] (rank 2 or 3), W [in, out] and b [out]: one op
/// with the bits of Add(MatMul(x, W), b). Forward is the GEMM into the
/// output, then out[r][j] + b[j] row by row. Backward accumulates the bias
/// gradient over the rows in order, then dX += dY W^T, then dW += X^T dY:
/// the order the MatMul-then-Add pair ran them in.
Tensor Affine(const Tensor& x, const Tensor& w, const Tensor& b);

/// Swaps the trailing two dims: [..., m, n] -> [..., n, m].
Tensor TransposeLast2(const Tensor& x);

// ---------------------------------------------------------------------------
// Activations / normalization
// ---------------------------------------------------------------------------

Tensor Relu(const Tensor& a);
Tensor TanhOp(const Tensor& a);
Tensor SigmoidOp(const Tensor& a);

/// Softmax over the last dimension.
Tensor Softmax(const Tensor& a);

/// Log-softmax over the last dimension.
Tensor LogSoftmaxOp(const Tensor& a);

/// Layer normalization over the last dimension with learned gain/bias.
/// gamma/beta have rank 1 with length = last dim of x.
Tensor LayerNormOp(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                   float eps = 1e-5f);

/// Inverted dropout: at training time zeroes elements with probability p and
/// rescales survivors by 1/(1-p); identity when !training or p == 0.
Tensor DropoutOp(const Tensor& x, float p, Rng& rng, bool training);

// ---------------------------------------------------------------------------
// Shape manipulation
// ---------------------------------------------------------------------------

/// Copying reshape (element count must be preserved).
Tensor Reshape(const Tensor& x, const Shape& shape);

/// Multi-head split: [B, T, H*dh] -> [B*H, T, dh].
Tensor SplitHeads(const Tensor& x, int64_t num_heads);

/// Inverse of SplitHeads: [B*H, T, dh] -> [B, T, H*dh].
Tensor MergeHeads(const Tensor& x, int64_t num_heads);

/// Concatenates along the last dimension (all leading dims must match).
Tensor ConcatLastDim(const Tensor& a, const Tensor& b);

/// x[..., begin:end] along the last dimension.
Tensor SliceLastDim(const Tensor& x, int64_t begin, int64_t end);

// ---------------------------------------------------------------------------
// Embedding / sequence ops
// ---------------------------------------------------------------------------

/// Gathers rows of `table` ([V, D]) for `ids` (length batch*seq), producing
/// [batch, seq, D]. Backward scatter-adds into the table.
Tensor EmbeddingGather(const Tensor& table, const std::vector<int32_t>& ids,
                       int64_t batch, int64_t seq);

/// scores + mask where `mask` is a constant buffer of the same element count
/// (used for additive -inf attention masks; no gradient flows to the mask).
Tensor AddMask(const Tensor& scores, const std::vector<float>& mask);

// ---------------------------------------------------------------------------
// Losses / probability ops
// ---------------------------------------------------------------------------

/// Mean negative log-likelihood of `targets` under `logits` ([B, T, V]),
/// averaged over positions where mask != 0. Fused stable softmax.
/// `targets` and `mask` have length B*T. With label_smoothing = e > 0 the
/// target distribution becomes (1-e)*onehot + e/V (uniform smoothing).
Tensor MaskedCrossEntropy(const Tensor& logits,
                          const std::vector<int32_t>& targets,
                          const std::vector<float>& mask,
                          float label_smoothing = 0.0f);

/// Per-sequence sum of the chosen-token log-probabilities: returns [B] where
/// out[b] = sum_t mask[b,t] * log softmax(logits[b,t])[targets[b,t]].
/// This is log P(target sequence | source) under teacher forcing — the
/// building block for the cycle-consistency likelihood (paper Eq. 3/5).
Tensor SequenceLogProb(const Tensor& logits,
                       const std::vector<int32_t>& targets,
                       const std::vector<float>& mask);

/// [n] -> [n/group]: log-sum-exp over consecutive groups of `group` elements.
/// Used to marginalize over the k synthetic titles of each query.
Tensor GroupLogSumExp(const Tensor& x, int64_t group);

/// a[b, t, :] + bcast[b, :] for a of shape [B, T, D] and bcast [B, D] —
/// the broadcast used by Bahdanau-style additive attention.
Tensor AddRowBroadcast(const Tensor& a, const Tensor& bcast);

/// Stacks T tensors of shape [B, D] into [B, T, D] (the RNN unroll op).
Tensor StackRows(const std::vector<Tensor>& steps);

/// Sum of all elements -> scalar.
Tensor SumAll(const Tensor& x);

/// Mean of all elements -> scalar.
Tensor MeanAll(const Tensor& x);

}  // namespace cyqr

#endif  // CYCLEQR_TENSOR_OPS_H_
