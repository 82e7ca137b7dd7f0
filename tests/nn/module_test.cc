#include "nn/module.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/rng.h"
#include "nn/layers.h"
#include "tensor/ops.h"

namespace cyqr {
namespace {

/// ClipGradNorm as it was written before its loop bounds were hoisted,
/// over plain vectors: the oracle the fast version must match bit for bit.
double ReferenceClipGradNorm(std::vector<std::vector<float>>* grads,
                             double max_norm) {
  double sq = 0.0;
  for (const std::vector<float>& g : *grads) {
    for (size_t i = 0; i < g.size(); ++i) {
      sq += static_cast<double>(g[i]) * g[i];
    }
  }
  const double norm = std::sqrt(sq);
  if (norm > max_norm && norm > 0.0) {
    const float scale = static_cast<float>(max_norm / norm);
    for (std::vector<float>& g : *grads) {
      for (size_t i = 0; i < g.size(); ++i) g[i] *= scale;
    }
  }
  return norm;
}

/// Gradient values that stress the norm: exact zeros, magnitudes whose
/// square underflows or dwarfs the rest, and ordinary Gaussians.
float EdgeGradient(Rng& rng) {
  static constexpr float kEdges[] = {0.0f, 1e-30f, -1e-30f, 1e3f, -1e3f};
  const uint64_t pick = rng.NextBelow(10);
  if (pick < 5) return kEdges[pick];
  return static_cast<float>(rng.NextGaussian());
}

TEST(ModuleTest, ParametersCollectChildren) {
  Rng rng(1);
  FeedForward ff(4, 8, rng);
  // fc1: W+b, fc2: W+b.
  EXPECT_EQ(ff.Parameters().size(), 4u);
  EXPECT_EQ(ff.NumParameters(), 4 * 8 + 8 + 8 * 4 + 4);
}

TEST(ModuleTest, ParametersRequireGrad) {
  Rng rng(2);
  Linear lin(3, 5, rng);
  for (const Tensor& p : lin.Parameters()) {
    EXPECT_TRUE(p.requires_grad());
  }
}

TEST(ModuleTest, SetTrainingPropagates) {
  Rng rng(3);
  FeedForward ff(4, 8, rng);
  EXPECT_TRUE(ff.training());
  ff.SetTraining(false);
  EXPECT_FALSE(ff.training());
}

TEST(ModuleTest, ClipGradNormScalesDown) {
  Tensor p = Tensor::FromData(Shape{2}, {0.0f, 0.0f});
  p.set_requires_grad(true);
  float* g = p.mutable_grad();
  g[0] = 3.0f;
  g[1] = 4.0f;  // Norm 5.
  const double pre = ClipGradNorm({p}, 1.0);
  EXPECT_NEAR(pre, 5.0, 1e-6);
  EXPECT_NEAR(p.grad()[0], 0.6f, 1e-5f);
  EXPECT_NEAR(p.grad()[1], 0.8f, 1e-5f);
}

TEST(ModuleTest, ClipGradNormMatchesScalarOracleBitForBit) {
  // One bound far below the norm (every gradient scaled) and one far above
  // it (none touched). The untouched parameter has no gradient buffer.
  for (const double max_norm : {0.5, 1e9}) {
    Rng rng(9);
    std::vector<Tensor> params;
    std::vector<std::vector<float>> expected;
    for (const int64_t size : {1, 7, 33, 4096}) {
      Tensor p = Tensor::Zeros(Shape{size});
      p.set_requires_grad(true);
      float* g = p.mutable_grad();
      for (int64_t i = 0; i < size; ++i) g[i] = EdgeGradient(rng);
      params.push_back(p);
      expected.emplace_back(g, g + size);
    }
    Tensor no_grad = Tensor::Zeros(Shape{3});
    no_grad.set_requires_grad(true);
    params.push_back(no_grad);

    const double norm = ClipGradNorm(params, max_norm);
    const double expected_norm = ReferenceClipGradNorm(&expected, max_norm);
    EXPECT_EQ(std::memcmp(&norm, &expected_norm, sizeof(norm)), 0)
        << "max_norm=" << max_norm;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(std::memcmp(params[i].grad(), expected[i].data(),
                            expected[i].size() * sizeof(float)),
                0)
          << "max_norm=" << max_norm << " param " << i;
    }
    EXPECT_FALSE(no_grad.has_grad());
  }
}

TEST(ModuleTest, ClipGradNormNoopBelowThreshold) {
  Tensor p = Tensor::FromData(Shape{1}, {0.0f});
  p.set_requires_grad(true);
  p.mutable_grad()[0] = 0.5f;
  ClipGradNorm({p}, 10.0);
  EXPECT_FLOAT_EQ(p.grad()[0], 0.5f);
}

}  // namespace
}  // namespace cyqr
