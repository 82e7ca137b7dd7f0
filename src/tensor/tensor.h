#ifndef CYCLEQR_TENSOR_TENSOR_H_
#define CYCLEQR_TENSOR_TENSOR_H_

#include <functional>
#include <memory>
#include <vector>

#include "core/check.h"
#include "core/rng.h"
#include "tensor/shape.h"

namespace cyqr {

struct GradNode;

/// Shared storage + autograd metadata behind a Tensor handle.
struct TensorImpl {
  Shape shape;
  std::vector<float> data;
  std::vector<float> grad;  // Lazily allocated; same size as data when live.
  bool requires_grad = false;
  std::shared_ptr<GradNode> node;  // Non-null for non-leaf grad tensors.

  void EnsureGrad() {
    if (grad.size() != data.size()) grad.assign(data.size(), 0.0f);
  }
};

/// A node in the dynamic autograd tape. `backward` reads `out.grad` and
/// accumulates into each input's grad (allocating it on demand).
struct GradNode {
  const char* name = "";
  std::vector<std::shared_ptr<TensorImpl>> inputs;
  std::function<void(TensorImpl& out)> backward;
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
  /// Accumulates into .grad of all reachable requires_grad tensors.
  void Backward();

  const std::shared_ptr<TensorImpl>& impl() const { return impl_; }
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

 private:
  std::shared_ptr<TensorImpl> impl_;
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
