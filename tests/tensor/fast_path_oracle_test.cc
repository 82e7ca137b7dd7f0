// Slow oracles for the taped fast paths: the fused Affine op against the
// MatMul-then-Add pair it replaces, the stamped backward walk against a
// DFS over an unordered_set of visited tensors, and ReLU's select against
// the branch. Every comparison is bit for bit.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
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
  std::vector<std::shared_ptr<TensorImpl>> impls;
  for (const Tensor& t : inputs) impls.push_back(t.impl());
  return MakeOpResult(
      Shape{1}, {1.0f}, std::span<const Tensor>(inputs),
      [impls = std::move(impls), id, log](TensorImpl& o) {
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

TEST(BackwardWalkTest, TensorReachedByTwoWalksFiresInBoth) {
  // A later walk takes a new stamp, so a tensor a previous walk stamped is
  // visited again.
  std::vector<int> log;
  Tensor leaf = Tensor::Full(Shape{1}, 1.0f);
  leaf.set_requires_grad(true);
  const Tensor shared = LoggedOp({leaf}, 1, &log);
  Tensor first = LoggedOp({shared, shared}, 2, &log);
  Tensor second = LoggedOp({shared}, 3, &log);
  first.Backward();
  second.Backward();
  EXPECT_EQ(log, (std::vector<int>{2, 1, 3, 1}));
}

// --- ReLU backward -----------------------------------------------------------

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

  ASSERT_TRUE(y.has_grad());
  const float* dy = y.grad();
  for (int64_t i = 0; i < n; ++i) {
    float expected = dx_values[i];
    if (x_values[i] > 0.0f) expected += dy[i];
    EXPECT_TRUE(SameBits(&x.grad()[i], &expected, 1))
        << "x=" << x_values[i] << " dx=" << dx_values[i] << " dy=" << dy[i];
  }
}

}  // namespace
}  // namespace cyqr
