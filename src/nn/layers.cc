#include "nn/layers.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "core/check.h"

namespace cyqr {

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng, bool bias)
    : in_features_(in_features), out_features_(out_features) {
  const float stddev =
      std::sqrt(2.0f / static_cast<float>(in_features + out_features));
  weight_ = RegisterParameter(
      Tensor::Randn(Shape{in_features, out_features}, rng, stddev));
  if (bias) {
    bias_ = RegisterParameter(Tensor::Zeros(Shape{out_features}));
  }
}

Tensor Linear::Forward(const Tensor& x) const {
  CYQR_CHECK_EQ(x.shape().back(), in_features_);
  if (bias_.defined()) return Affine(x, weight_, bias_);
  return MatMul(x, weight_);
}

Embedding::Embedding(int64_t vocab_size, int64_t dim, Rng& rng)
    : vocab_size_(vocab_size), dim_(dim) {
  const float stddev = 1.0f / std::sqrt(static_cast<float>(dim));
  table_ = RegisterParameter(
      Tensor::Randn(Shape{vocab_size, dim}, rng, stddev));
}

Tensor Embedding::Forward(const std::vector<int32_t>& ids, int64_t batch,
                          int64_t seq) const {
  return EmbeddingGather(table_, ids, batch, seq);
}

LayerNorm::LayerNorm(int64_t dim) {
  gamma_ = RegisterParameter(Tensor::Full(Shape{dim}, 1.0f));
  beta_ = RegisterParameter(Tensor::Zeros(Shape{dim}));
}

Tensor LayerNorm::Forward(const Tensor& x) const {
  return LayerNormOp(x, gamma_, beta_);
}

Tensor Dropout::Forward(const Tensor& x) const {
  // Inference decoding runs under NoGradGuard; dropout must be inert there
  // even if the module was left in training mode.
  const bool active = training() && NoGradGuard::GradEnabled();
  return DropoutOp(x, p_, *rng_, active);
}

FeedForward::FeedForward(int64_t dim, int64_t hidden, Rng& rng)
    : fc1_(dim, hidden, rng), fc2_(hidden, dim, rng) {
  RegisterModule(&fc1_);
  RegisterModule(&fc2_);
}

Tensor FeedForward::Forward(const Tensor& x) const {
  return fc2_.Forward(Relu(fc1_.Forward(x)));
}

namespace {

/// Rows [0, end) of the sinusoidal table of width d > 0, row-major. Each
/// thread keeps its own tables and grows them on demand with the one
/// expression, so a value is the same bits whenever it is read.
const float* PositionalRows(int64_t d, int64_t end) {
  thread_local std::unordered_map<int64_t, std::vector<float>> tables;
  std::vector<float>& table = tables[d];
  const int64_t have = static_cast<int64_t>(table.size()) / d;
  if (have < end) {
    table.resize(static_cast<size_t>(end * d));
    for (int64_t p = have; p < end; ++p) {
      const double pos = static_cast<double>(p);
      for (int64_t j = 0; j < d; ++j) {
        const double angle =
            pos / std::pow(10000.0, 2.0 * (j / 2) / static_cast<double>(d));
        table[p * d + j] = static_cast<float>(
            (j % 2 == 0) ? std::sin(angle) : std::cos(angle));
      }
    }
  }
  return table.data();
}

}  // namespace

Tensor AddPositionalEncoding(const Tensor& x, int64_t offset) {
  CYQR_CHECK_EQ(x.shape().rank(), 3);
  CYQR_CHECK_GE(offset, 0);
  const int64_t b = x.shape().dim(0);
  const int64_t t = x.shape().dim(1);
  const int64_t d = x.shape().dim(2);
  std::vector<float> pe(static_cast<size_t>(b * t * d));
  if (d > 0) {
    const float* rows = PositionalRows(d, offset + t) + offset * d;
    for (int64_t bi = 0; bi < b; ++bi) {
      std::copy_n(rows, t * d, pe.data() + bi * t * d);
    }
  }
  return AddMask(x, pe);
}

}  // namespace cyqr
