// What an op builds when nothing records: MakeOpResult leaves the backward
// closure alone and allocates no GradNode, an inactive dropout is its
// input, and shapes live inline up to Shape::kMaxRank.

#include <gtest/gtest.h>

#include "tensor/autograd.h"
#include "tensor/ops.h"

namespace cyqr {
namespace {

/// A one-input backward closure that counts how often it is copied, moved
/// and run.
struct CountingBackward {
  struct Counts {
    int copies = 0;
    int moves = 0;
    int calls = 0;
    const TensorImpl* input = nullptr;  // What the last call was handed.
  };
  Counts* counts;

  explicit CountingBackward(Counts* c) : counts(c) {}
  CountingBackward(const CountingBackward& other) : counts(other.counts) {
    ++counts->copies;
  }
  CountingBackward(CountingBackward&& other) noexcept
      : counts(other.counts) {
    ++counts->moves;
  }
  CountingBackward& operator=(const CountingBackward&) = delete;
  CountingBackward& operator=(CountingBackward&&) = delete;
  void operator()(TensorImpl&, TensorImpl& in) const {
    ++counts->calls;
    counts->input = &in;
  }
};

Tensor Leaf(bool requires_grad) {
  Tensor t = Tensor::Full(Shape{1, 4}, 0.5f);
  t.set_requires_grad(requires_grad);
  return t;
}

TEST(TapeFreeTest, NoGradOpNeverCopiesOrConvertsItsClosure) {
  Tensor x = Leaf(/*requires_grad=*/true);
  CountingBackward::Counts counts;
  CountingBackward backward(&counts);
  NoGradGuard no_grad;
  Tensor from_lvalue =
      MakeOpResult(x.shape(), std::vector<float>(4, 1.0f), {x},
                   BackwardReads{}, backward, "Counted");
  Tensor from_rvalue =
      MakeOpResult(x.shape(), std::vector<float>(4, 1.0f), {x},
                   BackwardReads{}, CountingBackward(&counts), "Counted");
  EXPECT_EQ(counts.copies, 0);
  EXPECT_EQ(counts.moves, 0);
  for (const Tensor& out : {from_lvalue, from_rvalue}) {
    EXPECT_EQ(out.impl()->node, nullptr);
    EXPECT_FALSE(out.requires_grad());
  }
}

TEST(TapeFreeTest, OpOverConstantsRecordsNothingEvenWithGradEnabled) {
  Tensor x = Leaf(/*requires_grad=*/false);
  CountingBackward::Counts counts;
  Tensor out = MakeOpResult(x.shape(), std::vector<float>(4, 1.0f), {x, x},
                            BackwardReads{}, CountingBackward(&counts),
                            "Counted");
  EXPECT_EQ(counts.copies + counts.moves, 0);
  EXPECT_EQ(out.impl()->node, nullptr);
}

TEST(TapeFreeTest, RecordingOpKeepsItsClosureAndRunsIt) {
  Tensor x = Leaf(/*requires_grad=*/true);
  CountingBackward::Counts counts;
  Tensor out = MakeOpResult(x.shape(), std::vector<float>(4, 1.0f), {x},
                            BackwardReads{}, CountingBackward(&counts),
                            "Counted");
  ASSERT_NE(out.impl()->node, nullptr);
  EXPECT_TRUE(out.requires_grad());
  EXPECT_STREQ(out.impl()->node->name, "Counted");
  ASSERT_EQ(out.impl()->node->num_inputs(), 1u);
  EXPECT_EQ(out.impl()->node->input(0), x.impl());
  EXPECT_EQ(counts.copies, 0);  // An rvalue closure is moved, not copied.
  SumAll(out).Backward();
  EXPECT_EQ(counts.calls, 1);
  EXPECT_EQ(counts.input, x.impl().get());  // The node's own input.
}

TEST(TapeFreeTest, SpanInputsRecordEveryInput) {
  const std::vector<Tensor> steps = {Leaf(true), Leaf(false), Leaf(true)};
  Tensor out = StackRows(steps);
  ASSERT_NE(out.impl()->node, nullptr);
  ASSERT_EQ(out.impl()->node->num_inputs(), 3u);
  for (size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(out.impl()->node->input(i), steps[i].impl());
  }
}

TEST(TapeFreeTest, OpRecordsFollowsGuardAndInputs) {
  const Tensor leaf = Leaf(/*requires_grad=*/true);
  const Tensor constant = Leaf(/*requires_grad=*/false);
  EXPECT_TRUE(OpRecords({constant, leaf}));
  EXPECT_FALSE(OpRecords({constant}));
  const Tensor intermediate = Scale(leaf, 2.0f);  // Taped, not a leaf.
  EXPECT_TRUE(OpRecords({intermediate}));
  NoGradGuard no_grad;
  EXPECT_FALSE(OpRecords({constant, leaf}));
}

TEST(TapeFreeTest, OpCountCountsEveryOpOnThisThread) {
  const Tensor a = Leaf(/*requires_grad=*/false);
  const int64_t before = ThreadOpCount();
  Tensor b = Add(a, a);
  b = Relu(Scale(b, 2.0f));
  EXPECT_EQ(ThreadOpCount() - before, 3);
  NoGradGuard no_grad;
  b = Add(b, a);
  EXPECT_EQ(ThreadOpCount() - before, 4);
}

TEST(TapeFreeTest, InactiveDropoutIsItsInput) {
  Rng rng(3);
  const Tensor x = Leaf(/*requires_grad=*/true);
  const int64_t before = ThreadOpCount();
  EXPECT_EQ(DropoutOp(x, 0.5f, rng, /*training=*/false).impl(), x.impl());
  EXPECT_EQ(DropoutOp(x, 0.0f, rng, /*training=*/true).impl(), x.impl());
  EXPECT_EQ(ThreadOpCount(), before);
  Rng fresh(3);
  EXPECT_EQ(rng.NextUint64(), fresh.NextUint64());  // Nothing was drawn.
}

TEST(TapeFreeTest, LayerNormUnderNoGradMatchesTapedValues) {
  Rng rng(4);
  Tensor x = Tensor::Randn(Shape{3, 8}, rng);
  Tensor gamma = Tensor::Randn(Shape{8}, rng);
  Tensor beta = Tensor::Randn(Shape{8}, rng);
  gamma.set_requires_grad(true);
  const Tensor taped = LayerNormOp(x, gamma, beta);
  ASSERT_NE(taped.impl()->node, nullptr);
  NoGradGuard no_grad;
  const Tensor untaped = LayerNormOp(x, gamma, beta);
  EXPECT_EQ(untaped.impl()->node, nullptr);
  EXPECT_EQ(untaped.impl()->data, taped.impl()->data);
}

TEST(ShapeInlineTest, HoldsUpToMaxRank) {
  const Shape s{1, 2, 3, 4};
  EXPECT_EQ(s.rank(), Shape::kMaxRank);
  EXPECT_EQ(s.NumElements(), 24);
  EXPECT_EQ(s.back(), 4);
  EXPECT_EQ(std::vector<int64_t>(s.dims().begin(), s.dims().end()),
            (std::vector<int64_t>{1, 2, 3, 4}));
  EXPECT_NE(s, Shape({1, 2, 3}));
}

TEST(ShapeInlineTest, RankFiveFailsItsCheck) {
  EXPECT_DEATH(Shape({1, 2, 3, 4, 5}), "kMaxRank");
}

}  // namespace
}  // namespace cyqr
