// Slow oracles for the taped fast paths: the fused Affine op against the
// MatMul-then-Add pair it replaces, the stamped backward walk against a
// DFS over an unordered_set of visited tensors, ReLU's select on its output
// against the branch on its input, and LayerNorm's row statistics and
// dropout's byte mask against the normalized rows and float mask they
// replace. Every comparison is bit for bit.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"

namespace cyqr {
namespace {

bool SameBits(const float* a, const float* b, int64_t n) {
  return std::memcmp(a, b, static_cast<size_t>(n) * sizeof(float)) == 0;
}

Tensor Param(const Shape& shape, Rng& rng) {
  Tensor t = Tensor::Randn(shape, rng);
  t.set_requires_grad(true);
  return t;
}

/// A fresh leaf with the same values and requires_grad as `t`.
Tensor CopyOf(const Tensor& t) {
  Tensor c = Tensor::FromData(
      t.shape(), std::vector<float>(t.data(), t.data() + t.NumElements()));
  c.set_requires_grad(t.requires_grad());
  return c;
}

/// A loss that sends a different upstream gradient to every output
/// element, some of them exact zeros.
Tensor WeightedLoss(const Tensor& y, Rng& rng) {
  std::vector<float> w(static_cast<size_t>(y.NumElements()));
  for (float& v : w) {
    v = rng.NextBelow(5) == 0 ? 0.0f : static_cast<float>(rng.NextGaussian());
  }
  return SumAll(Mul(y, Tensor::FromData(y.shape(), std::move(w))));
}

struct AffineCase {
  std::vector<int64_t> x_dims;  // Rank 2 or 3; the last dim is `in`.
  int64_t out;
};

void PrintTo(const AffineCase& c, std::ostream* os) {
  *os << "x [";
  for (size_t i = 0; i < c.x_dims.size(); ++i) {
    *os << (i > 0 ? ", " : "") << c.x_dims[i];
  }
  *os << "] out " << c.out;
}

class AffineOracleTest : public ::testing::TestWithParam<AffineCase> {};

TEST_P(AffineOracleTest, MatchesMatMulThenAddBitForBit) {
  const AffineCase& c = GetParam();
  const Shape x_shape{std::span<const int64_t>(c.x_dims)};
  const int64_t in = c.x_dims.back();
  Rng rng(11);
  const Tensor x = Param(x_shape, rng);
  const Tensor w = Param(Shape{in, c.out}, rng);
  const Tensor b = Param(Shape{c.out}, rng);
  const Tensor x2 = CopyOf(x);
  const Tensor w2 = CopyOf(w);
  const Tensor b2 = CopyOf(b);

  const Tensor fused = Affine(x, w, b);
  const Tensor pair = Add(MatMul(x2, w2), b2);
  ASSERT_EQ(fused.shape(), pair.shape());
  EXPECT_TRUE(SameBits(fused.data(), pair.data(), fused.NumElements()));

  Rng loss_rng(12);
  WeightedLoss(fused, loss_rng).Backward();
  Rng pair_loss_rng(12);
  WeightedLoss(pair, pair_loss_rng).Backward();
  for (const auto& [mine, theirs] :
       {std::pair{x, x2}, std::pair{w, w2}, std::pair{b, b2}}) {
    ASSERT_TRUE(mine.has_grad());
    ASSERT_TRUE(theirs.has_grad());
    EXPECT_TRUE(SameBits(mine.grad(), theirs.grad(), mine.NumElements()))
        << "gradient of a " << mine.NumElements() << "-element input";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AffineOracleTest,
    ::testing::Values(AffineCase{{4, 8}, 16},    // Whole blocks.
                      AffineCase{{7, 5}, 13},    // Leftover rows and columns.
                      AffineCase{{1, 32}, 40},   // One row.
                      AffineCase{{3, 5, 9}, 11},  // Rank 3, 15 rows.
                      AffineCase{{2, 3, 64}, 37}),
    [](const ::testing::TestParamInfo<AffineCase>& info) {
      std::string name = "x";
      for (const int64_t d : info.param.x_dims) {
        name += std::to_string(d) + "_";
      }
      return name + "out" + std::to_string(info.param.out);
    });

TEST(AffineTest, UnderNoGradRecordsNothing) {
  Rng rng(13);
  const Tensor x = Param(Shape{5, 6}, rng);
  const Tensor w = Param(Shape{6, 7}, rng);
  const Tensor b = Param(Shape{7}, rng);
  const Tensor taped = Affine(x, w, b);
  ASSERT_NE(taped.impl()->node, nullptr);
  EXPECT_EQ(taped.impl()->node->num_inputs(), 3u);
  NoGradGuard no_grad;
  const int64_t before = ThreadOpCount();
  const Tensor untaped = Affine(x, w, b);
  EXPECT_EQ(ThreadOpCount() - before, 1);
  EXPECT_EQ(untaped.impl()->node, nullptr);
  EXPECT_FALSE(untaped.requires_grad());
  EXPECT_EQ(untaped.impl()->data, taped.impl()->data);
}

TEST(AffineTest, OnlyTheInputsThatNeedGradientsGetThem) {
  Rng rng(14);
  const Tensor x = Tensor::Randn(Shape{3, 4}, rng);  // A constant.
  const Tensor w = Param(Shape{4, 5}, rng);
  const Tensor b = Tensor::Randn(Shape{5}, rng);  // A constant.
  SumAll(Affine(x, w, b)).Backward();
  EXPECT_FALSE(x.has_grad());
  EXPECT_TRUE(w.has_grad());
  EXPECT_FALSE(b.has_grad());
}

// --- Backward walk order ---------------------------------------------------

/// An op over `inputs` whose backward logs `id` and passes the upstream
/// gradient on to every input, so every reachable node fires.
Tensor LoggedOp(const std::vector<Tensor>& inputs, int id,
                std::vector<int>* log) {
  return MakeOpResult(
      Shape{1}, {1.0f}, std::span<const Tensor>(inputs), BackwardReads{},
      [id, log](TensorImpl& o, GradNode::InputSpan impls) {
        log->push_back(id);
        for (const auto& in : impls) {
          in->EnsureGrad();
          in->grad[0] += o.grad[0];
        }
      },
      "Logged");
}

/// The walk Tensor::Backward made before it stamped tensors: a DFS over
/// the inputs in order, with an unordered_set of visited tensors, whose
/// reversed post-order is the firing order.
std::vector<TensorImpl*> ReferenceFiringOrder(const Tensor& loss) {
  std::vector<TensorImpl*> order;
  std::unordered_set<TensorImpl*> visited;
  std::vector<std::pair<TensorImpl*, size_t>> stack;
  stack.emplace_back(loss.impl().get(), 0);
  visited.insert(loss.impl().get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (node->node == nullptr || next_child >= node->node->num_inputs()) {
      order.push_back(node);
      stack.pop_back();
      continue;
    }
    TensorImpl* child = node->node->input(next_child++).get();
    if (visited.insert(child).second) stack.emplace_back(child, 0);
  }
  std::vector<TensorImpl*> firing;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if ((*it)->node != nullptr) firing.push_back(*it);
  }
  return firing;
}

TEST(BackwardWalkTest, FiresInTheOrderOfAVisitedSetDfs) {
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed);
    std::vector<int> log;
    std::vector<Tensor> tensors;
    for (int i = 0; i < 4; ++i) {
      Tensor leaf = Tensor::Full(Shape{1}, 1.0f);
      leaf.set_requires_grad(true);
      tensors.push_back(leaf);
    }
    std::vector<int> ids;  // Op id of tensors[i], or -1 for a leaf.
    ids.assign(tensors.size(), -1);
    // Random DAG: each op reads 1-6 earlier tensors (repeats allowed), so
    // diamonds, repeated inputs and a spilled input list all occur; tensor
    // 4 (the first op) is read by every tenth op as well, four or more
    // times in all.
    for (int op = 0; op < 40; ++op) {
      std::vector<Tensor> inputs;
      const int arity = 1 + static_cast<int>(rng.NextBelow(6));
      for (int a = 0; a < arity; ++a) {
        inputs.push_back(tensors[rng.NextBelow(tensors.size())]);
      }
      if (op > 0 && op % 10 == 0) inputs.push_back(tensors[4]);
      tensors.push_back(LoggedOp(inputs, op, &log));
      ids.push_back(op);
    }
    // The loss reads every op output, then tensor 4 once more.
    std::vector<Tensor> tail(tensors.begin() + 4, tensors.end());
    tail.push_back(tensors[4]);
    Tensor loss = LoggedOp(tail, 1000, &log);

    std::vector<int> expected;
    for (TensorImpl* impl : ReferenceFiringOrder(loss)) {
      if (impl == loss.impl().get()) {
        expected.push_back(1000);
        continue;
      }
      for (size_t i = 0; i < tensors.size(); ++i) {
        if (tensors[i].impl().get() == impl) expected.push_back(ids[i]);
      }
    }
    loss.Backward();
    EXPECT_EQ(log, expected) << "seed " << seed;
    EXPECT_EQ(log.size(), 41u) << "seed " << seed;
  }
}

TEST(BackwardWalkDeathTest, SecondWalkThroughAConsumedTensorFailsItsCheck) {
  // The first walk fires `shared` and releases its node, so `shared` no
  // longer leads to `leaf`. A second walk that reached it and read it as a
  // leaf would drop the gradient `leaf` is owed; it must fail instead.
  // Gradients still accumulate across graphs that share only leaves
  // (TensorTest.GradAccumulatesAcrossBackwards).
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<int> log;
  Tensor leaf = Tensor::Full(Shape{1}, 1.0f);
  leaf.set_requires_grad(true);
  const Tensor shared = LoggedOp({leaf}, 1, &log);
  Tensor first = LoggedOp({shared, shared}, 2, &log);
  Tensor second = LoggedOp({shared}, 3, &log);
  first.Backward();
  EXPECT_EQ(log, (std::vector<int>{2, 1}));
  EXPECT_TRUE(shared.impl()->consumed);
  EXPECT_EQ(shared.impl()->node, nullptr);
  EXPECT_DEATH(second.Backward(), "an earlier Backward\\(\\) consumed");
  EXPECT_DEATH(first.Backward(), "an earlier Backward\\(\\) consumed");
}

// --- ReLU backward -----------------------------------------------------------

// The backward selects on y = Relu(x) > 0, so no backward reads the
// pre-activation; the reference branches on x > 0, as it once did.
TEST(ReluBackwardTest, SelectMatchesTheBranchOnEveryEdgeValue) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float tiny = std::numeric_limits<float>::denorm_min();
  const std::vector<float> xs = {0.0f, -0.0f, nan, -nan, inf, -inf, tiny,
                                 -tiny, 1.5f, -2.5f, 1e-30f, -1e-30f};
  const std::vector<float> upstream = {1.0f, -1.0f, 0.0f, nan, 2.0f, -0.5f};
  const std::vector<float> prior = {0.0f, 0.25f, -3.0f, -0.0f, nan, 7.0f};
  const int64_t n = static_cast<int64_t>(xs.size() * upstream.size());
  std::vector<float> x_values;
  std::vector<float> w_values;
  std::vector<float> dx_values;
  for (size_t i = 0; i < xs.size(); ++i) {
    for (size_t j = 0; j < upstream.size(); ++j) {
      x_values.push_back(xs[i]);
      w_values.push_back(upstream[j]);
      dx_values.push_back(prior[(i + j) % prior.size()]);
    }
  }
  Tensor x = Tensor::FromData(Shape{n}, x_values);
  x.set_requires_grad(true);
  std::memcpy(x.mutable_grad(), dx_values.data(), n * sizeof(float));
  const Tensor y = Relu(x);
  const Tensor w = Tensor::FromData(Shape{n}, w_values);
  SumAll(Mul(y, w)).Backward();
  EXPECT_TRUE(y.impl()->consumed);

  for (int64_t i = 0; i < n; ++i) {
    // dy is what Mul sends into y's fresh (+0) gradient, SumAll's 1 times
    // w; the walk frees that buffer once Relu has fired.
    const float dy = 0.0f + 1.0f * w_values[i];
    float expected = dx_values[i];
    if (x_values[i] > 0.0f) expected += dy;
    EXPECT_TRUE(SameBits(&x.grad()[i], &expected, 1))
        << "x=" << x_values[i] << " dx=" << dx_values[i] << " dy=" << dy;
  }
}

// --- LayerNorm and dropout state ---------------------------------------------

/// LayerNormOp as it was when its backward read the normalized rows and
/// inverse deviations it saved, rather than rebuilding them.
Tensor SavedRowsLayerNorm(const Tensor& x, const Tensor& gamma,
                          const Tensor& beta, float eps) {
  const int64_t d = x.shape().back();
  const int64_t rows = x.NumElements() / d;
  std::vector<float> out(x.NumElements());
  auto xhat = std::make_shared<std::vector<float>>(x.NumElements());
  auto inv_std = std::make_shared<std::vector<float>>(rows);
  const float* px = x.data();
  const float* pg = gamma.data();
  const float* pb = beta.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = px + r * d;
    double mu = 0.0;
    for (int64_t j = 0; j < d; ++j) mu += row[j];
    mu /= d;
    double var = 0.0;
    for (int64_t j = 0; j < d; ++j) {
      const double c = row[j] - mu;
      var += c * c;
    }
    var /= d;
    const float istd = static_cast<float>(1.0 / std::sqrt(var + eps));
    (*inv_std)[r] = istd;
    for (int64_t j = 0; j < d; ++j) {
      const float xh = (row[j] - static_cast<float>(mu)) * istd;
      (*xhat)[r * d + j] = xh;
      out[r * d + j] = pg[j] * xh + pb[j];
    }
  }
  return MakeOpResult(
      x.shape(), std::move(out), {x, gamma, beta},
      BackwardReads{.inputs = 0b10},  // gamma.
      [xhat, inv_std, rows, d](TensorImpl& o, TensorImpl& ix, TensorImpl& ig,
                               TensorImpl& ib) {
        if (ig.requires_grad || ig.node) ig.EnsureGrad();
        if (ib.requires_grad || ib.node) ib.EnsureGrad();
        const bool need_x = ix.requires_grad || ix.node != nullptr;
        if (need_x) ix.EnsureGrad();
        for (int64_t r = 0; r < rows; ++r) {
          const float* dy = o.grad.data() + r * d;
          const float* xh = xhat->data() + r * d;
          if (!ig.grad.empty()) {
            for (int64_t j = 0; j < d; ++j) ig.grad[j] += dy[j] * xh[j];
          }
          if (!ib.grad.empty()) {
            for (int64_t j = 0; j < d; ++j) ib.grad[j] += dy[j];
          }
          if (need_x) {
            float mean_dxh = 0.0f;
            float mean_dxh_xh = 0.0f;
            for (int64_t j = 0; j < d; ++j) {
              const float dxh = dy[j] * ig.data[j];
              mean_dxh += dxh;
              mean_dxh_xh += dxh * xh[j];
            }
            mean_dxh /= d;
            mean_dxh_xh /= d;
            const float istd = (*inv_std)[r];
            float* dx = ix.grad.data() + r * d;
            for (int64_t j = 0; j < d; ++j) {
              const float dxh = dy[j] * ig.data[j];
              dx[j] += istd * (dxh - mean_dxh - xh[j] * mean_dxh_xh);
            }
          }
        }
      },
      "LayerNorm");
}

/// Rows of width d: Gaussian rows, rows of signed zeros (variance 0), and
/// rows far from the origin, whose mean rounds as a float.
std::vector<float> LayerNormRows(int64_t d, Rng& rng) {
  std::vector<float> values;
  for (int64_t j = 0; j < d; ++j) {
    values.push_back(static_cast<float>(rng.NextGaussian()));
  }
  for (int64_t j = 0; j < d; ++j) values.push_back(j % 2 == 0 ? 0.0f : -0.0f);
  for (int64_t j = 0; j < d; ++j) values.push_back(-0.0f);
  for (const float offset : {1.0e4f, -3.0e6f, 7.5e8f}) {
    for (int64_t j = 0; j < d; ++j) {
      values.push_back(offset + static_cast<float>(rng.NextGaussian()));
    }
  }
  return values;
}

TEST(LayerNormOracleTest, RowStatsMatchSavedNormalizedRowsBitForBit) {
  for (const int64_t d : {1, 7, 32, 33}) {
    for (const bool x_needs_grad : {true, false}) {
      Rng rng(static_cast<uint64_t>(20 + d));
      std::vector<float> values = LayerNormRows(d, rng);
      const int64_t rows = static_cast<int64_t>(values.size()) / d;
      Tensor x = Tensor::FromData(Shape{rows, d}, std::move(values));
      x.set_requires_grad(x_needs_grad);
      const Tensor gamma = Param(Shape{d}, rng);
      const Tensor beta = Param(Shape{d}, rng);
      const Tensor x2 = CopyOf(x);
      const Tensor gamma2 = CopyOf(gamma);
      const Tensor beta2 = CopyOf(beta);

      const Tensor y = LayerNormOp(x, gamma, beta, 1e-5f);
      const Tensor y2 = SavedRowsLayerNorm(x2, gamma2, beta2, 1e-5f);
      const std::string where = "d=" + std::to_string(d) +
                                (x_needs_grad ? " x taped" : " x constant");
      ASSERT_TRUE(SameBits(y.data(), y2.data(), y.NumElements())) << where;

      Rng loss_rng(30);
      WeightedLoss(y, loss_rng).Backward();
      Rng saved_loss_rng(30);
      WeightedLoss(y2, saved_loss_rng).Backward();
      for (const auto& [mine, theirs] : {std::pair{x, x2},
                                         std::pair{gamma, gamma2},
                                         std::pair{beta, beta2}}) {
        ASSERT_EQ(mine.has_grad(), theirs.has_grad()) << where;
        if (!mine.has_grad()) continue;
        EXPECT_TRUE(SameBits(mine.grad(), theirs.grad(), mine.NumElements()))
            << where << ", gradient of a " << mine.NumElements()
            << "-element input";
      }
    }
  }
}

/// DropoutOp as it was when its backward read a float mask of 0 or scale.
Tensor FloatMaskDropout(const Tensor& x, float p, Rng& rng) {
  const int64_t n = x.NumElements();
  const float scale = 1.0f / (1.0f - p);
  auto mask = std::make_shared<std::vector<float>>(n);
  std::vector<float> out(n);
  const float* px = x.data();
  for (int64_t i = 0; i < n; ++i) {
    const float m = rng.NextFloat() < p ? 0.0f : scale;
    (*mask)[i] = m;
    out[i] = px[i] * m;
  }
  return MakeOpResult(
      x.shape(), std::move(out), {x}, BackwardReads{},
      [mask, n](TensorImpl& o, TensorImpl& ix) {
        ix.EnsureGrad();
        for (int64_t i = 0; i < n; ++i) {
          ix.grad[i] += o.grad[i] * (*mask)[i];
        }
      },
      "Dropout");
}

TEST(DropoutOracleTest, ByteMaskMatchesFloatMaskBitForBit) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const float p : {0.1f, 0.5f}) {
    Rng rng(40);
    std::vector<float> values;
    for (int i = 0; i < 997; ++i) {
      values.push_back(static_cast<float>(rng.NextGaussian()));
    }
    for (const float edge : {0.0f, -0.0f, nan, inf, -inf, 1e-40f}) {
      values.push_back(edge);
    }
    const int64_t n = static_cast<int64_t>(values.size());
    Tensor x = Tensor::FromData(Shape{n}, std::move(values));
    x.set_requires_grad(true);
    const Tensor x2 = CopyOf(x);

    Rng mask_rng(41);
    Rng float_mask_rng(41);
    const Tensor y = DropoutOp(x, p, mask_rng, /*training=*/true);
    const Tensor y2 = FloatMaskDropout(x2, p, float_mask_rng);
    // Both drew the same numbers, one per element.
    EXPECT_EQ(mask_rng.NextFloat(), float_mask_rng.NextFloat()) << "p=" << p;
    ASSERT_TRUE(SameBits(y.data(), y2.data(), n)) << "p=" << p;

    Rng loss_rng(42);
    WeightedLoss(y, loss_rng).Backward();
    Rng float_loss_rng(42);
    WeightedLoss(y2, float_loss_rng).Backward();
    ASSERT_TRUE(x.has_grad());
    ASSERT_TRUE(x2.has_grad());
    EXPECT_TRUE(SameBits(x.grad(), x2.grad(), n)) << "p=" << p;
  }
}

}  // namespace
}  // namespace cyqr
