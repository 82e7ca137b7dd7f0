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

/// The values an op's backward reads besides the upstream gradient: those
/// of some of its inputs, and its own output's. Each op declares them next
/// to its closure. An op output on the tape that nothing declared keeps
/// its values only while a handle holds it (see TensorImpl).
struct BackwardReads {
  uint32_t inputs = 0;  // Bit i: the values of input i.
  bool output = false;
};

namespace autograd_internal {

/// Wraps an op's output values in a fresh tensor and counts the op.
Tensor OpOutput(const Shape& shape, std::vector<float> data);

/// How many input impls a backward closure takes after the output's.
template <typename Method>
struct ClosureInputs;
template <typename C, typename... In>
struct ClosureInputs<void (C::*)(TensorImpl&, In...) const>
    : std::integral_constant<size_t, sizeof...(In)> {};

/// The tape node of one op: its inputs and its backward closure, built in
/// one allocation. It hands the closure the inputs it holds (MakeOpResult).
template <typename Fn>
class OpNode final : public GradNode {
 public:
  static constexpr bool kTakesSpan =
      std::is_invocable_v<Fn&, TensorImpl&, InputSpan>;
  static constexpr size_t kInputs =
      ClosureInputs<decltype(&Fn::operator())>::value;

  template <typename F>
  OpNode(F&& backward, const char* name)
      : GradNode(name), backward_(std::forward<F>(backward)) {}

  void Backward(TensorImpl& out) override {
    if constexpr (kTakesSpan) {
      backward_(out, inputs());
    } else {
      Fire(out, inputs(), std::make_index_sequence<kInputs>());
    }
  }

 private:
  template <size_t... I>
  void Fire(TensorImpl& out, InputSpan in, std::index_sequence<I...>) {
    backward_(out, *in[I]...);
  }

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
                    const Inputs& inputs, BackwardReads reads,
                    Backward&& backward, const char* name) {
  Tensor out = OpOutput(shape, std::move(data));
  if (AnyInputNeedsGrad(inputs)) {
    using Node = OpNode<std::decay_t<Backward>>;
    CYQR_CHECK(Node::kTakesSpan || inputs.size() == Node::kInputs);
    auto node = std::make_shared<Node>(std::forward<Backward>(backward), name);
    node->SetInputs(inputs);
    uint32_t bit = 1;
    for (const Tensor& t : inputs) {
      // Only an op output counts its handles, so only one can lose its
      // values; leaves, which threads share, are never written here.
      if ((reads.inputs & bit) != 0 && t.impl()->counts_handles) {
        t.impl()->values_read = true;
      }
      bit <<= 1;
    }
    TensorImpl& o = *out.impl();
    o.node = std::move(node);
    o.requires_grad = true;
    o.values_read = reads.output;
    o.counts_handles = true;
    // ordering: relaxed — `out` is the only handle and no other thread can
    // reach the impl yet.
    o.handles.store(1, std::memory_order_relaxed);
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
/// receives the *output* impl (its .grad is the upstream gradient) and then
/// the input impls the node holds, one `TensorImpl&` per input in order
/// (`StackRows` takes a GradNode::InputSpan), so it captures no handle of
/// its own. It may read only the values `reads` names: the output's own,
/// and those of the inputs whose bits are set.
///
/// Nothing that only backward needs is built unless the op records: the
/// closure stays the caller's object (never copied or moved) and no
/// GradNode is allocated. An op under NoGradGuard costs its output buffer
/// and its TensorImpl; a recording op adds one allocation, the node that
/// holds its inputs and its closure.
template <typename Backward>
Tensor MakeOpResult(const Shape& shape, std::vector<float> data,
                    OpInputList inputs, BackwardReads reads,
                    Backward&& backward, const char* name) {
  return autograd_internal::MakeOpResult(shape, std::move(data), inputs,
                                         reads,
                                         std::forward<Backward>(backward),
                                         name);
}

/// The same over a run of inputs held elsewhere (e.g. StackRows' steps).
template <typename Backward>
Tensor MakeOpResult(const Shape& shape, std::vector<float> data,
                    std::span<const Tensor> inputs, BackwardReads reads,
                    Backward&& backward, const char* name) {
  return autograd_internal::MakeOpResult(shape, std::move(data), inputs,
                                         reads,
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
