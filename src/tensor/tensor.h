#ifndef CYCLEQR_TENSOR_TENSOR_H_
#define CYCLEQR_TENSOR_TENSOR_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/check.h"
#include "core/rng.h"
#include "tensor/shape.h"

namespace cyqr {

class GradNode;

/// Shared storage + autograd metadata behind a Tensor handle.
struct TensorImpl {
  Shape shape;
  std::vector<float> data;
  std::vector<float> grad;  // Lazily allocated; same size as data when live.
  bool requires_grad = false;
  std::shared_ptr<GradNode> node;  // Non-null for non-leaf grad tensors.
  // The stamp of the last Backward() walk that reached this tensor. Each
  // walk takes a fresh stamp, so no walk has to clear it; no tensor is
  // reached by two walks at once (every training rank owns its replica).
  uint64_t walk_stamp = 0;
  // Set once a Backward() walk has released this op output's node and
  // gradient. The values stay, but the tensor no longer leads back to its
  // inputs, so a later walk that reaches it fails a check instead of
  // dropping the gradient it would have carried.
  bool consumed = false;

  void EnsureGrad() {
    if (grad.size() != data.size()) grad.assign(data.size(), 0.0f);
  }
};

/// Value-semantics handle to a float32 tensor with reverse-mode autograd.
///
/// Handles share storage: copying a Tensor aliases the same buffer, like a
/// framework tensor. Ops (see tensor/ops.h) record a dynamic tape; calling
/// Backward() on a scalar loss propagates gradients to every reachable
/// tensor with requires_grad set.
class Tensor {
 public:
  /// Empty (null) tensor; most APIs require a non-null tensor.
  Tensor() = default;

  static Tensor Zeros(const Shape& shape);
  static Tensor Full(const Shape& shape, float value);
  static Tensor FromData(const Shape& shape, std::vector<float> data);
  /// Gaussian init with the given standard deviation.
  static Tensor Randn(const Shape& shape, Rng& rng, float stddev = 1.0f);
  static Tensor Scalar(float value);

  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const {
    CYQR_CHECK(impl_ != nullptr);
    return impl_->shape;
  }
  int64_t NumElements() const { return shape().NumElements(); }

  float* data();
  const float* data() const;

  /// Gradient buffer; null until backward has touched this tensor.
  const float* grad() const;
  float* mutable_grad();
  bool has_grad() const;
  void ZeroGrad();

  bool requires_grad() const;
  /// Marks this tensor as a trainable leaf. Returns *this for chaining.
  Tensor& set_requires_grad(bool value);

  /// Value of a single-element tensor.
  float item() const;

  /// Runs reverse-mode autodiff from this tensor, which must be a scalar.
  /// Accumulates into .grad of all reachable requires_grad leaves.
  ///
  /// The walk consumes the tape: once an op output's turn has come, its
  /// node (closure, saved buffers, references to the inputs) and its
  /// gradient are freed, and the tensor itself is freed unless a handle
  /// outside the tape holds it. Leaves keep their gradients, and this
  /// tensor keeps its value. A tape can be walked once: a later walk that
  /// reaches a consumed tensor fails a check.
  void Backward();

  const std::shared_ptr<TensorImpl>& impl() const { return impl_; }
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

 private:
  std::shared_ptr<TensorImpl> impl_;
};

/// A node in the dynamic autograd tape: the inputs of one op and its
/// backward, which reads `out.grad` and accumulates into each input's grad
/// (allocating it on demand). MakeOpResult (tensor/autograd.h) derives one
/// node type per op closure, so a node and its closure are one allocation.
/// Up to kInlineInputs inputs live in the node itself; an op with more
/// (StackRows) keeps them all in a vector. Tensor::Backward() releases each
/// node once its turn in the walk has come.
class GradNode {
 public:
  static constexpr size_t kInlineInputs = 3;

  explicit GradNode(const char* op_name) : name(op_name) {}
  virtual ~GradNode() = default;
  GradNode(const GradNode&) = delete;
  GradNode& operator=(const GradNode&) = delete;
  GradNode(GradNode&&) = delete;
  GradNode& operator=(GradNode&&) = delete;

  virtual void Backward(TensorImpl& out) = 0;

  /// Stores the impls of `inputs` (tensors), in order.
  template <typename Inputs>
  void SetInputs(const Inputs& inputs) {
    num_inputs_ = inputs.size();
    if (num_inputs_ > kInlineInputs) spilled_.reserve(num_inputs_);
    size_t i = 0;
    for (const Tensor& t : inputs) {
      if (num_inputs_ > kInlineInputs) {
        spilled_.push_back(t.impl());
      } else {
        inline_[i++] = t.impl();
      }
    }
  }

  size_t num_inputs() const { return num_inputs_; }
  const std::shared_ptr<TensorImpl>& input(size_t i) const {
    return num_inputs_ > kInlineInputs ? spilled_[i] : inline_[i];
  }

  const char* name;

 private:
  size_t num_inputs_ = 0;
  std::array<std::shared_ptr<TensorImpl>, kInlineInputs> inline_;
  std::vector<std::shared_ptr<TensorImpl>> spilled_;
};

/// RAII guard that disables tape recording (used during decoding/serving).
/// Nestable; restores the previous mode on destruction.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

  /// True when gradients are currently being recorded.
  static bool GradEnabled();

 private:
  bool previous_;
};

}  // namespace cyqr

#endif  // CYCLEQR_TENSOR_TENSOR_H_
