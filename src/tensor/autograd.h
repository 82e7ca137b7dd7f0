#ifndef CYCLEQR_TENSOR_AUTOGRAD_H_
#define CYCLEQR_TENSOR_AUTOGRAD_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace cyqr {

/// The inputs of one op, by reference: listing them neither copies the
/// handles nor touches their refcounts.
using OpInputList = std::initializer_list<std::reference_wrapper<const Tensor>>;

namespace autograd_internal {

/// Wraps an op's output values in a fresh tensor and counts the op.
Tensor OpOutput(const Shape& shape, std::vector<float> data);

/// The tape node of one op: its inputs and its backward closure, built in
/// one allocation.
template <typename Fn>
class OpNode final : public GradNode {
 public:
  template <typename F>
  OpNode(F&& backward, const char* name)
      : GradNode(name), backward_(std::forward<F>(backward)) {}

  void Backward(TensorImpl& out) override { backward_(out); }

 private:
  Fn backward_;
};

template <typename Inputs>
bool AnyInputNeedsGrad(const Inputs& inputs) {
  if (!NoGradGuard::GradEnabled()) return false;
  for (const Tensor& t : inputs) {
    if (t.defined() && (t.requires_grad() || t.impl()->node != nullptr)) {
      return true;
    }
  }
  return false;
}

template <typename Inputs, typename Backward>
Tensor MakeOpResult(const Shape& shape, std::vector<float> data,
                    const Inputs& inputs, Backward&& backward,
                    const char* name) {
  Tensor out = OpOutput(shape, std::move(data));
  if (AnyInputNeedsGrad(inputs)) {
    auto node = std::make_shared<OpNode<std::decay_t<Backward>>>(
        std::forward<Backward>(backward), name);
    node->SetInputs(inputs);
    out.impl()->node = std::move(node);
    out.impl()->requires_grad = true;
  }
  return out;
}

}  // namespace autograd_internal

/// True when an op over `inputs` records a tape node: gradients are enabled
/// and some input requires them. An op whose backward needs buffers the
/// forward does not (e.g. LayerNorm's normalized rows) asks this first.
inline bool OpRecords(OpInputList inputs) {
  return autograd_internal::AnyInputNeedsGrad(inputs);
}

/// Builds an op output tensor and, when OpRecords(inputs), records a tape
/// node whose `backward` accumulates into the inputs. The backward closure
/// receives the *output* impl (its .grad is the upstream gradient).
///
/// Nothing that only backward needs is built unless the op records: the
/// closure stays the caller's object (never copied or moved) and no
/// GradNode is allocated. An op under NoGradGuard costs its output buffer
/// and its TensorImpl; a recording op adds one allocation, the node that
/// holds its inputs and its closure.
template <typename Backward>
Tensor MakeOpResult(const Shape& shape, std::vector<float> data,
                    OpInputList inputs, Backward&& backward,
                    const char* name) {
  return autograd_internal::MakeOpResult(shape, std::move(data), inputs,
                                         std::forward<Backward>(backward),
                                         name);
}

/// The same over a run of inputs held elsewhere (e.g. StackRows' steps).
template <typename Backward>
Tensor MakeOpResult(const Shape& shape, std::vector<float> data,
                    std::span<const Tensor> inputs, Backward&& backward,
                    const char* name) {
  return autograd_internal::MakeOpResult(shape, std::move(data), inputs,
                                         std::forward<Backward>(backward),
                                         name);
}

/// Tensor ops this thread has run: one per MakeOpResult call. Under fixed
/// inputs the count is exact and does not depend on the host, which makes
/// it the unit of the repository's work counts.
int64_t ThreadOpCount();

/// Numerically verifies the gradient of `fn` (a tensor program producing a
/// scalar) with respect to `input` by central differences. Returns the
/// maximum absolute difference between analytic and numeric gradients.
/// Intended for tests.
double GradCheck(const std::function<Tensor()>& fn, Tensor input,
                 float eps = 1e-3f);

}  // namespace cyqr

#endif  // CYCLEQR_TENSOR_AUTOGRAD_H_
