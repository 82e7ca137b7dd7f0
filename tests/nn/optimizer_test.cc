#include "nn/optimizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/rng.h"
#include "nn/module.h"
#include "nn/schedule.h"
#include "tensor/ops.h"

namespace cyqr {
namespace {

/// The scalar update loop Adam::Step ran before it was vectorized, kept as
/// the oracle: the fast loop must reproduce it bit for bit.
struct ReferenceAdam {
  Adam::Options options;
  int64_t step = 0;
  std::vector<std::vector<float>> x, m, v;

  void Step(const std::vector<std::vector<float>>& grads) {
    ++step;
    const float b1 = options.beta1;
    const float b2 = options.beta2;
    const float bias1 = 1.0f - std::pow(b1, static_cast<float>(step));
    const float bias2 = 1.0f - std::pow(b2, static_cast<float>(step));
    for (size_t i = 0; i < x.size(); ++i) {
      const std::vector<float>& g = grads[i];
      for (size_t j = 0; j < x[i].size(); ++j) {
        m[i][j] = b1 * m[i][j] + (1.0f - b1) * g[j];
        v[i][j] = b2 * v[i][j] + (1.0f - b2) * g[j] * g[j];
        const float mhat = m[i][j] / bias1;
        const float vhat = v[i][j] / bias2;
        x[i][j] -= options.learning_rate * mhat /
                   (std::sqrt(vhat) + options.eps);
      }
    }
  }
};

bool SameBits(const float* a, const std::vector<float>& b) {
  return std::memcmp(a, b.data(), b.size() * sizeof(float)) == 0;
}

/// Gradient values that stress the update: exact zeros, magnitudes whose
/// square underflows or dwarfs the rest, and ordinary Gaussians.
float EdgeGradient(Rng& rng) {
  static constexpr float kEdges[] = {0.0f, 1e-30f, -1e-30f, 1e3f, -1e3f};
  const uint64_t pick = rng.NextBelow(10);
  if (pick < 5) return kEdges[pick];
  return static_cast<float>(rng.NextGaussian());
}

TEST(AdamTest, VectorizedStepMatchesScalarOracleBitForBit) {
  Rng rng(42);
  std::vector<Tensor> params;
  ReferenceAdam oracle;
  for (const int64_t size : {1, 7, 33, 4096}) {
    Tensor p = Tensor::Randn(Shape{size}, rng);
    p.set_requires_grad(true);
    params.push_back(p);
    oracle.x.emplace_back(p.data(), p.data() + size);
    oracle.m.emplace_back(size, 0.0f);
    oracle.v.emplace_back(size, 0.0f);
  }
  Adam adam(params, oracle.options);
  for (int step = 1; step <= 50; ++step) {
    // A Noam-like learning rate that moves every step.
    const float lr = 1e-3f * static_cast<float>(1 + step % 7);
    adam.set_learning_rate(lr);
    oracle.options.learning_rate = lr;
    std::vector<std::vector<float>> grads;
    for (Tensor& p : params) {
      float* g = p.mutable_grad();
      for (int64_t j = 0; j < p.NumElements(); ++j) g[j] = EdgeGradient(rng);
      grads.emplace_back(g, g + p.NumElements());
    }
    adam.Step();
    oracle.Step(grads);
  }
  const AdamState state = adam.ExportState();
  EXPECT_EQ(state.step, oracle.step);
  for (size_t i = 0; i < params.size(); ++i) {
    EXPECT_TRUE(SameBits(params[i].data(), oracle.x[i])) << "param " << i;
    EXPECT_TRUE(SameBits(state.m[i].data(), oracle.m[i])) << "m " << i;
    EXPECT_TRUE(SameBits(state.v[i].data(), oracle.v[i])) << "v " << i;
  }
}

TEST(AdamTest, MinimizesQuadratic) {
  Tensor x = Tensor::FromData(Shape{2}, {5.0f, -3.0f});
  x.set_requires_grad(true);
  Adam::Options opt;
  opt.learning_rate = 0.1f;
  Adam adam({x}, opt);
  for (int i = 0; i < 300; ++i) {
    adam.ZeroGrad();
    Tensor loss = SumAll(Mul(x, x));
    loss.Backward();
    adam.Step();
  }
  EXPECT_NEAR(x.data()[0], 0.0f, 1e-2f);
  EXPECT_NEAR(x.data()[1], 0.0f, 1e-2f);
}

TEST(AdamTest, SkipsParametersWithoutGradients) {
  Tensor a = Tensor::FromData(Shape{1}, {1.0f});
  a.set_requires_grad(true);
  Tensor b = Tensor::FromData(Shape{1}, {2.0f});
  b.set_requires_grad(true);
  Adam adam({a, b}, {});
  // Only a receives a gradient.
  SumAll(Mul(a, a)).Backward();
  adam.Step();
  EXPECT_NE(a.data()[0], 1.0f);
  EXPECT_FLOAT_EQ(b.data()[0], 2.0f);
}

TEST(AdamTest, FirstStepSizeIsLearningRate) {
  // Adam's bias correction makes the first update ~= lr * sign(grad).
  Tensor x = Tensor::FromData(Shape{1}, {10.0f});
  x.set_requires_grad(true);
  Adam::Options opt;
  opt.learning_rate = 0.5f;
  Adam adam({x}, opt);
  SumAll(x).Backward();  // grad = 1.
  adam.Step();
  EXPECT_NEAR(x.data()[0], 9.5f, 1e-3f);
}

/// The data-parallel optimizer tail StepRange replaced, kept as the
/// oracle: scatter the averaged flat gradient into the parameters'
/// gradient buffers, clip them, then one whole Step().
void LoadClipAndStep(Adam& adam, const std::vector<Tensor>& params,
                     const std::vector<float>& flat, float scale,
                     double max_norm) {
  size_t offset = 0;
  for (const Tensor& p : params) {
    Tensor t = p;
    float* grad = t.mutable_grad();
    for (int64_t e = 0; e < t.NumElements(); ++e) {
      grad[e] = flat[offset + e] * scale;
    }
    offset += static_cast<size_t>(t.NumElements());
  }
  ClipGradNorm(params, max_norm);
  adam.Step();
}

/// The same update as `k` slices over the flat elements, as the trainer's
/// ranks run it: the clip scale from the norm of the averaged gradient,
/// every slice, then the commit.
void SlicedStep(Adam& adam, int k, const std::vector<float>& flat,
                float scale, double max_norm) {
  double sq = 0.0;
  for (const float sum : flat) {
    const float g = sum * scale;
    sq += static_cast<double>(g) * g;
  }
  const double norm = std::sqrt(sq);
  const float clip =
      norm > max_norm && norm > 0.0 ? static_cast<float>(max_norm / norm)
                                    : 1.0f;
  const int64_t n = static_cast<int64_t>(flat.size());
  const int64_t step = adam.step_count() + 1;
  // Last slice first: the slices are independent.
  for (int r = k - 1; r >= 0; --r) {
    adam.StepRange(step, n * r / k, n * (r + 1) / k, flat.data(), scale, clip);
  }
  EXPECT_EQ(adam.step_count(), step - 1) << "a slice committed the step";
  adam.set_step_count(step);
}

TEST(AdamTest, SlicedStepMatchesLoadClipAndStepBitForBit) {
  const std::vector<int64_t> sizes = {1, 7, 33, 130, 4096};
  for (const double max_norm : {0.5, 1e30}) {  // Clip on, clip off.
    for (const int k : {1, 2, 3, 4, 5}) {
      Rng rng(99);
      std::vector<Tensor> oracle_params;
      std::vector<Tensor> sliced_params;
      for (const int64_t size : sizes) {
        Tensor p = Tensor::Randn(Shape{size}, rng);
        p.set_requires_grad(true);
        Tensor q = Tensor::FromData(
            p.shape(), std::vector<float>(p.data(), p.data() + size));
        q.set_requires_grad(true);
        oracle_params.push_back(p);
        sliced_params.push_back(q);
      }
      Adam oracle(oracle_params, {});
      Adam sliced(sliced_params, {});
      // Three gradient shards: 1/3 is inexact, so a regrouped product
      // would show.
      const float scale = 1.0f / 3.0f;
      for (int step = 1; step <= 20; ++step) {
        const float lr = 1e-3f * static_cast<float>(1 + step % 7);
        oracle.set_learning_rate(lr);
        sliced.set_learning_rate(lr);
        std::vector<float> flat;
        for (const int64_t size : sizes) {
          for (int64_t e = 0; e < size; ++e) flat.push_back(EdgeGradient(rng));
        }
        LoadClipAndStep(oracle, oracle_params, flat, scale, max_norm);
        SlicedStep(sliced, k, flat, scale, max_norm);
      }
      const AdamState want = oracle.ExportState();
      const AdamState got = sliced.ExportState();
      EXPECT_EQ(got.step, want.step);
      for (size_t i = 0; i < sizes.size(); ++i) {
        const std::vector<float> x(
            oracle_params[i].data(),
            oracle_params[i].data() + oracle_params[i].NumElements());
        EXPECT_TRUE(SameBits(sliced_params[i].data(), x))
            << "param " << i << " k=" << k << " max_norm=" << max_norm;
        EXPECT_TRUE(SameBits(got.m[i].data(), want.m[i])) << "m " << i;
        EXPECT_TRUE(SameBits(got.v[i].data(), want.v[i])) << "v " << i;
      }
    }
  }
}

TEST(AdamTest, UncommittedSlicesLeaveTheStepCount) {
  Tensor p = Tensor::FromData(Shape{4}, {1.0f, 2.0f, 3.0f, 4.0f});
  p.set_requires_grad(true);
  Adam adam({p}, {});
  const std::vector<float> flat = {1.0f, -1.0f, 0.5f, 2.0f};
  adam.StepRange(1, 0, 2, flat.data(), 1.0f, 1.0f);
  adam.StepRange(1, 2, 4, flat.data(), 1.0f, 1.0f);
  EXPECT_EQ(adam.step_count(), 0);
  EXPECT_NE(p.data()[0], 1.0f);
  adam.set_step_count(1);
  EXPECT_EQ(adam.ExportState().step, 1);
}

TEST(AdamTest, SliceBeyondTheParametersFailsItsCheck) {
  Tensor p = Tensor::Zeros(Shape{3});
  p.set_requires_grad(true);
  Adam adam({p}, {});
  const std::vector<float> flat(4, 1.0f);
  EXPECT_DEATH(adam.StepRange(1, 0, 4, flat.data(), 1.0f, 1.0f), "");
}

TEST(NoamScheduleTest, WarmupRampsUpThenDecays) {
  NoamSchedule sched(64, 100, 1.0f);
  EXPECT_LT(sched.LearningRate(1), sched.LearningRate(50));
  EXPECT_LT(sched.LearningRate(50), sched.LearningRate(100));
  EXPECT_GT(sched.LearningRate(100), sched.LearningRate(400));
}

TEST(NoamScheduleTest, PeakAtWarmup) {
  NoamSchedule sched(64, 200, 1.0f);
  const float peak = sched.LearningRate(200);
  EXPECT_GE(peak, sched.LearningRate(199));
  EXPECT_GE(peak, sched.LearningRate(201));
}

TEST(NoamScheduleTest, FactorScalesLinearly) {
  NoamSchedule a(64, 100, 1.0f);
  NoamSchedule b(64, 100, 2.0f);
  EXPECT_NEAR(b.LearningRate(37), 2.0f * a.LearningRate(37), 1e-7f);
}

}  // namespace
}  // namespace cyqr
