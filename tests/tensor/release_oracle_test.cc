// The release of op outputs' values (TensorImpl): an op output on the tape
// keeps its values only while a handle holds it or a recorded backward
// reads them. The oracle runs every recording op of tensor/ops.h on inputs
// that are op outputs themselves, once keeping every handle and once
// dropping them before Backward, and compares every gradient bit for bit:
// an op whose backward reads values it did not declare reads freed ones.
// It also checks that the tape nodes are the only owners of an op's inputs
// besides the test's own handles: no backward closure keeps a copy.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/rng.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"

namespace cyqr {
namespace {

using Inputs = std::vector<Tensor>;

struct OpCase {
  std::string name;
  std::vector<Shape> shapes;  // One trainable leaf per input.
  std::function<Tensor(const Inputs&)> op;
};

/// How many times the nodes of the tape under `y` list `input`.
long TapeListings(const Tensor& y, const Tensor& input) {
  long listings = 0;
  std::vector<const TensorImpl*> stack = {y.impl().get()};
  std::set<const TensorImpl*> seen = {y.impl().get()};
  while (!stack.empty()) {
    const GradNode* node = stack.back()->node.get();
    stack.pop_back();
    if (node == nullptr) continue;
    for (size_t i = 0; i < node->num_inputs(); ++i) {
      const TensorImpl* in = node->input(i).get();
      if (in == input.impl().get()) ++listings;
      if (seen.insert(in).second) stack.push_back(in);
    }
  }
  return listings;
}

/// The leaves' gradients after Backward of a weighted sum of a copy of the
/// op's output, with each leaf reaching the op through a Reshape, so every
/// input and the output are op outputs on the tape. Unless `keep_handles`,
/// the handles of the inputs and of the output go before Backward, and
/// each must then have freed its values or be read by a recorded backward.
std::vector<std::vector<float>> LeafGradients(const OpCase& c,
                                              bool keep_handles) {
  Rng rng(17);
  std::vector<Tensor> leaves;
  Inputs inputs;
  for (const Shape& shape : c.shapes) {
    leaves.push_back(Tensor::Randn(shape, rng));
    leaves.back().set_requires_grad(true);
    inputs.push_back(Reshape(leaves.back(), shape));
  }
  Tensor y = c.op(inputs);
  for (size_t i = 0; i < inputs.size(); ++i) {
    // `inputs` holds one reference; every other is a node's listing.
    EXPECT_EQ(inputs[i].impl().use_count(), 1 + TapeListings(y, inputs[i]))
        << c.name << ", input " << i;
  }
  const Tensor copy = Reshape(y, y.shape());  // No backward reads y.
  std::vector<std::shared_ptr<TensorImpl>> tape = {y.impl()};
  for (const Tensor& t : inputs) tape.push_back(t.impl());
  if (!keep_handles) {
    inputs.clear();
    y = Tensor();
    for (const std::shared_ptr<TensorImpl>& t : tape) {
      EXPECT_NE(t->values_read, t->values_freed) << c.name;
      EXPECT_EQ(t->data.empty(), t->values_freed) << c.name;
    }
  }
  std::vector<float> weights(static_cast<size_t>(copy.NumElements()));
  for (float& w : weights) {
    w = rng.NextBelow(5) == 0 ? 0.0f : static_cast<float>(rng.NextGaussian());
  }
  SumAll(Mul(copy, Tensor::FromData(copy.shape(), std::move(weights))))
      .Backward();
  std::vector<std::vector<float>> grads;
  for (const Tensor& leaf : leaves) {
    grads.emplace_back(leaf.grad(), leaf.grad() + leaf.NumElements());
  }
  return grads;
}

std::vector<OpCase> EveryRecordingOp() {
  const std::vector<int32_t> ids = {0, 4, 2, 2, 1, 3};
  const std::vector<int32_t> targets = {1, 4, 0, 2, 3, 3};
  const std::vector<float> mask = {1, 1, 0, 1, 1, 1};
  std::vector<float> additive(6, 0.0f);
  additive[2] = -1e9f;
  return {
      {"Add", {Shape{2, 3}, Shape{2, 3}},
       [](const Inputs& in) { return Add(in[0], in[1]); }},
      {"AddBias", {Shape{2, 3, 4}, Shape{4}},
       [](const Inputs& in) { return Add(in[0], in[1]); }},
      {"Sub", {Shape{2, 3}, Shape{2, 3}},
       [](const Inputs& in) { return Sub(in[0], in[1]); }},
      {"Mul", {Shape{2, 3}, Shape{2, 3}},
       [](const Inputs& in) { return Mul(in[0], in[1]); }},
      {"Scale", {Shape{2, 3}},
       [](const Inputs& in) { return Scale(in[0], -1.5f); }},
      {"AddScalar", {Shape{2, 3}},
       [](const Inputs& in) { return AddScalar(in[0], 0.25f); }},
      {"MatMul", {Shape{3, 4}, Shape{4, 5}},
       [](const Inputs& in) { return MatMul(in[0], in[1]); }},
      {"MatMulSharedB", {Shape{2, 3, 4}, Shape{4, 5}},
       [](const Inputs& in) { return MatMul(in[0], in[1]); }},
      {"MatMulBatched", {Shape{2, 3, 4}, Shape{2, 4, 5}},
       [](const Inputs& in) { return MatMul(in[0], in[1]); }},
      {"MatMulTransposed", {Shape{2, 4, 3}, Shape{2, 5, 4}},
       [](const Inputs& in) { return MatMul(in[0], in[1], true, true); }},
      {"Affine", {Shape{2, 3, 4}, Shape{4, 5}, Shape{5}},
       [](const Inputs& in) { return Affine(in[0], in[1], in[2]); }},
      {"TransposeLast2", {Shape{2, 3, 4}},
       [](const Inputs& in) { return TransposeLast2(in[0]); }},
      {"Relu", {Shape{3, 5}}, [](const Inputs& in) { return Relu(in[0]); }},
      {"Tanh", {Shape{3, 5}}, [](const Inputs& in) { return TanhOp(in[0]); }},
      {"Sigmoid", {Shape{3, 5}},
       [](const Inputs& in) { return SigmoidOp(in[0]); }},
      {"Softmax", {Shape{3, 5}},
       [](const Inputs& in) { return Softmax(in[0]); }},
      {"LogSoftmax", {Shape{3, 5}},
       [](const Inputs& in) { return LogSoftmaxOp(in[0]); }},
      {"LayerNorm", {Shape{3, 6}, Shape{6}, Shape{6}},
       [](const Inputs& in) { return LayerNormOp(in[0], in[1], in[2]); }},
      {"Dropout", {Shape{4, 5}},
       [](const Inputs& in) {
         Rng rng(23);
         return DropoutOp(in[0], 0.3f, rng, /*training=*/true);
       }},
      {"Reshape", {Shape{2, 6}},
       [](const Inputs& in) { return Reshape(in[0], Shape{3, 4}); }},
      {"SplitHeads", {Shape{2, 3, 4}},
       [](const Inputs& in) { return SplitHeads(in[0], 2); }},
      {"MergeHeads", {Shape{4, 3, 2}},
       [](const Inputs& in) { return MergeHeads(in[0], 2); }},
      {"ConcatLastDim", {Shape{2, 3}, Shape{2, 4}},
       [](const Inputs& in) { return ConcatLastDim(in[0], in[1]); }},
      {"SliceLastDim", {Shape{2, 6}},
       [](const Inputs& in) { return SliceLastDim(in[0], 1, 4); }},
      {"EmbeddingGather", {Shape{5, 3}},
       [ids](const Inputs& in) { return EmbeddingGather(in[0], ids, 2, 3); }},
      {"AddMask", {Shape{2, 3}},
       [additive](const Inputs& in) { return AddMask(in[0], additive); }},
      {"MaskedCrossEntropy", {Shape{2, 3, 5}},
       [targets, mask](const Inputs& in) {
         return MaskedCrossEntropy(in[0], targets, mask);
       }},
      {"MaskedCrossEntropySmoothed", {Shape{2, 3, 5}},
       [targets, mask](const Inputs& in) {
         return MaskedCrossEntropy(in[0], targets, mask, 0.1f);
       }},
      {"SequenceLogProb", {Shape{2, 3, 5}},
       [targets, mask](const Inputs& in) {
         return SequenceLogProb(in[0], targets, mask);
       }},
      {"GroupLogSumExp", {Shape{6}},
       [](const Inputs& in) { return GroupLogSumExp(in[0], 3); }},
      {"AddRowBroadcast", {Shape{2, 3, 4}, Shape{2, 4}},
       [](const Inputs& in) { return AddRowBroadcast(in[0], in[1]); }},
      {"StackRows", {Shape{2, 3}, Shape{2, 3}, Shape{2, 3}, Shape{2, 3}},
       [](const Inputs& in) { return StackRows(in); }},
      {"SumAll", {Shape{2, 3}},
       [](const Inputs& in) { return SumAll(in[0]); }},
      {"MeanAll", {Shape{2, 3}},
       [](const Inputs& in) { return MeanAll(in[0]); }},
  };
}

TEST(ReleaseOracleTest, DroppedHandlesLeaveEveryGradientBitForBit) {
  for (const OpCase& c : EveryRecordingOp()) {
    const std::vector<std::vector<float>> kept = LeafGradients(c, true);
    const std::vector<std::vector<float>> dropped = LeafGradients(c, false);
    ASSERT_EQ(kept.size(), dropped.size()) << c.name;
    for (size_t i = 0; i < kept.size(); ++i) {
      ASSERT_EQ(kept[i].size(), dropped[i].size()) << c.name;
      EXPECT_EQ(std::memcmp(kept[i].data(), dropped[i].data(),
                            kept[i].size() * sizeof(float)),
                0)
          << c.name << ", gradient of input " << i;
    }
  }
}

/// A trainable 2 x 3 leaf.
Tensor Leaf() {
  Tensor t = Tensor::Full(Shape{2, 3}, 0.5f);
  t.set_requires_grad(true);
  return t;
}

TEST(HandleCountTest, ValuesGoWithTheLastHandleOnlyWhenNothingReadsThem) {
  const Tensor leaf = Leaf();
  Tensor a = Reshape(leaf, leaf.shape());
  Tensor copy = a;
  const Tensor b = Scale(a, 2.0f);  // Reads nothing of `a`.
  const std::shared_ptr<TensorImpl> impl = a.impl();
  a = Tensor();
  EXPECT_FALSE(impl->values_freed) << "a copy still holds it";
  Tensor moved = std::move(copy);
  EXPECT_FALSE(impl->values_freed) << "a move keeps the count";
  moved = b;
  EXPECT_TRUE(impl->values_freed);
  EXPECT_TRUE(impl->data.empty());

  Tensor read = Reshape(leaf, leaf.shape());
  const Tensor product = Mul(read, leaf);  // Reads both inputs.
  const std::shared_ptr<TensorImpl> read_impl = read.impl();
  read = Tensor();
  EXPECT_FALSE(read_impl->values_freed);
  EXPECT_EQ(read_impl->data.size(), 6u);

  // The gradient is sized from the shape, and the walk reaches the leaf.
  SumAll(Add(b, product)).Backward();
  ASSERT_TRUE(leaf.has_grad());
  EXPECT_EQ(leaf.grad()[0], 2.0f + 0.5f + 0.5f);
}

TEST(HandleCountTest, LeavesAndNoGradOutputsNeverCount) {
  Tensor leaf = Leaf();
  {
    const Tensor alias = leaf;
    EXPECT_FALSE(leaf.impl()->counts_handles);
  }
  const Tensor taped = Scale(leaf, 1.0f);
  EXPECT_TRUE(taped.impl()->counts_handles);
  NoGradGuard no_grad;
  const Tensor untaped = Scale(leaf, 1.0f);
  EXPECT_FALSE(untaped.impl()->counts_handles);
  EXPECT_EQ(untaped.impl()->handles.load(), 0);
}

TEST(HandleCountDeathTest, ReadingFreedValuesFailsACheckNamingTheCause) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Tensor leaf = Leaf();
  const Tensor b = Scale(Reshape(leaf, leaf.shape()), 2.0f);
  // A handle made again from the tape's own reference.
  const Tensor revived(b.impl()->node->input(0));
  EXPECT_DEATH(revived.data(), "freed when its last handle went");
  EXPECT_DEATH(revived.item(), "freed when its last handle went");
}

}  // namespace
}  // namespace cyqr
