#ifndef CYCLEQR_TENSOR_TENSOR_H_
#define CYCLEQR_TENSOR_TENSOR_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/check.h"
#include "core/rng.h"
#include "tensor/shape.h"

namespace cyqr {

class GradNode;

/// Shared storage + autograd metadata behind a Tensor handle.
struct TensorImpl {
  // An op output that records a node counts the Tensor handles that point
  // at it, apart from the tape's own references (the node lists of the ops
  // that read it). When the last handle goes while the node is alive and
  // no recorded backward reads the values, the values are freed; the impl
  // stays on the tape to carry the gradient. Leaves and no-grad outputs
  // never count, so threads may share their handles and the no-grad path
  // pays a flag test per handle copy and drop. The flags sit first, beside
  // the shared_ptr's own counts.
  std::atomic<int32_t> handles{0};
  bool counts_handles = false;  // Set once, before a second handle exists.
  bool values_read = false;     // A recorded backward reads `data`.
  bool values_freed = false;
  bool requires_grad = false;
  Shape shape;
  std::vector<float> data;
  std::vector<float> grad;  // Lazily allocated, NumElements() long when live.
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

  // Sized from the shape: an op output's values may be gone by the time
  // its gradient is needed.
  void EnsureGrad() {
    const size_t n = static_cast<size_t>(shape.NumElements());
    if (grad.size() != n) grad.assign(n, 0.0f);
  }
};

/// Value-semantics handle to a float32 tensor with reverse-mode autograd.
///
/// Handles share storage: copying a Tensor aliases the same buffer, like a
/// framework tensor. Ops (see tensor/ops.h) record a dynamic tape; calling
/// Backward() on a scalar loss propagates gradients to every reachable
/// tensor with requires_grad set.
///
/// An op output on the tape keeps its values only while a handle holds it
/// or a recorded backward reads them (see TensorImpl): reading the values
/// of one that lost both fails a check.
class Tensor {
 public:
  /// Empty (null) tensor; most APIs require a non-null tensor.
  Tensor() = default;
  Tensor(const Tensor& other) : impl_(other.impl_) { AddHandle(); }
  Tensor(Tensor&& other) noexcept = default;
  Tensor& operator=(const Tensor& other) {
    Tensor copy(other);
    return *this = std::move(copy);
  }
  Tensor& operator=(Tensor&& other) noexcept {
    if (this != &other) {
      DropHandle();
      impl_ = std::move(other.impl_);
    }
    return *this;
  }
  ~Tensor() { DropHandle(); }

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
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {
    AddHandle();
  }

 private:
  void AddHandle() const {
    if (impl_ != nullptr && impl_->counts_handles) {
      // ordering: relaxed — as a shared_ptr's increment: a reference that
      // already holds the impl makes the new handle; nothing is published.
      impl_->handles.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void DropHandle() {
    if (impl_ != nullptr && impl_->counts_handles) ReleaseHandle();
  }
  /// Drops this handle's count and frees the values once the last handle
  /// of an op output no recorded backward reads has gone.
  void ReleaseHandle();
  /// Fails a check naming the cause when the values were freed.
  void CheckValues() const;

  std::shared_ptr<TensorImpl> impl_;
};

/// A node in the dynamic autograd tape: the inputs of one op and its
/// backward, which reads `out.grad` and accumulates into each input's grad
/// (allocating it on demand). MakeOpResult (tensor/autograd.h) derives one
/// node type per op closure, so a node and its closure are one allocation,
/// and the node's list is the tape's only reference to the inputs.
/// Up to kInlineInputs inputs live in the node itself; an op with more
/// (StackRows) keeps them all in a vector. Tensor::Backward() releases each
/// node once its turn in the walk has come.
class GradNode {
 public:
  static constexpr size_t kInlineInputs = 3;
  using InputSpan = std::span<const std::shared_ptr<TensorImpl>>;

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
    return inputs()[i];
  }
  InputSpan inputs() const {
    return {num_inputs_ > kInlineInputs ? spilled_.data() : inline_.data(),
            num_inputs_};
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
