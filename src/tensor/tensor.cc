#include "tensor/tensor.h"

#include <atomic>

#include "core/check.h"

namespace cyqr {

namespace {
thread_local bool g_grad_enabled = true;
std::atomic<uint64_t> g_last_walk_stamp{0};
}  // namespace

Tensor Tensor::Zeros(const Shape& shape) { return Full(shape, 0.0f); }

Tensor Tensor::Full(const Shape& shape, float value) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = shape;
  impl->data.assign(static_cast<size_t>(shape.NumElements()), value);
  return Tensor(std::move(impl));
}

Tensor Tensor::FromData(const Shape& shape, std::vector<float> data) {
  CYQR_CHECK_EQ(static_cast<size_t>(shape.NumElements()), data.size());
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = shape;
  impl->data = std::move(data);
  return Tensor(std::move(impl));
}

Tensor Tensor::Randn(const Shape& shape, Rng& rng, float stddev) {
  Tensor t = Zeros(shape);
  float* d = t.data();
  const int64_t n = shape.NumElements();
  for (int64_t i = 0; i < n; ++i) {
    d[i] = static_cast<float>(rng.NextGaussian()) * stddev;
  }
  return t;
}

Tensor Tensor::Scalar(float value) { return Full(Shape{}, value); }

void Tensor::ReleaseHandle() {
  // ordering: acq_rel — as a shared_ptr's decrement: the handle that drops
  // last sees every write made through the others before it frees.
  if (impl_->handles.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  TensorImpl& t = *impl_;
  if (t.node == nullptr || t.values_read) return;
  std::vector<float>().swap(t.data);
  t.values_freed = true;
}

void Tensor::CheckValues() const {
  CYQR_CHECK(impl_ != nullptr);
  CYQR_CHECK_MSG(!impl_->values_freed,
                 "read the values of an op output that were freed when its "
                 "last handle went, as no recorded backward reads them; "
                 "keep a handle to read them");
}

float* Tensor::data() {
  CheckValues();
  return impl_->data.data();
}

const float* Tensor::data() const {
  CheckValues();
  return impl_->data.data();
}

const float* Tensor::grad() const {
  CYQR_CHECK(impl_ != nullptr);
  return impl_->grad.empty() ? nullptr : impl_->grad.data();
}

float* Tensor::mutable_grad() {
  CYQR_CHECK(impl_ != nullptr);
  impl_->EnsureGrad();
  return impl_->grad.data();
}

bool Tensor::has_grad() const {
  return impl_ != nullptr && !impl_->grad.empty();
}

void Tensor::ZeroGrad() {
  CYQR_CHECK(impl_ != nullptr);
  if (!impl_->grad.empty()) {
    std::fill(impl_->grad.begin(), impl_->grad.end(), 0.0f);
  }
}

bool Tensor::requires_grad() const {
  return impl_ != nullptr && impl_->requires_grad;
}

Tensor& Tensor::set_requires_grad(bool value) {
  CYQR_CHECK(impl_ != nullptr);
  impl_->requires_grad = value;
  return *this;
}

float Tensor::item() const {
  CheckValues();
  CYQR_CHECK_EQ(impl_->data.size(), 1u);
  return impl_->data[0];
}

void Tensor::Backward() {
  constexpr const char* kConsumed =
      "Backward() reached a tensor whose tape an earlier Backward() "
      "consumed; build a fresh graph for every walk";
  CYQR_CHECK(impl_ != nullptr);
  CYQR_CHECK_MSG(impl_->shape.NumElements() == 1,
                 "Backward() requires a scalar tensor");
  CYQR_CHECK_MSG(!impl_->consumed, kConsumed);
  // Topological sort of the tape reachable from this output. A tensor is
  // visited once it carries this walk's stamp. The stack holds each
  // tensor's handle where its consumer keeps it, so `order` can take a
  // strong reference to every op output the walk will fire; leaves need
  // none, as the walk never touches them after the sort.
  // ordering: relaxed — the counter only hands each walk a stamp no other
  // walk holds; the stamps it writes are read by this thread alone.
  const uint64_t stamp =
      g_last_walk_stamp.fetch_add(1, std::memory_order_relaxed) + 1;
  std::vector<std::shared_ptr<TensorImpl>> order;
  std::vector<std::pair<const std::shared_ptr<TensorImpl>*, size_t>> stack;
  stack.emplace_back(&impl_, 0);
  impl_->walk_stamp = stamp;
  while (!stack.empty()) {
    auto& [handle, next_child] = stack.back();
    const GradNode* node = (*handle)->node.get();
    if (node == nullptr || next_child >= node->num_inputs()) {
      if (node != nullptr) order.push_back(*handle);
      stack.pop_back();
      continue;
    }
    const std::shared_ptr<TensorImpl>& child = node->input(next_child++);
    if (child->walk_stamp != stamp) {
      CYQR_CHECK_MSG(!child->consumed, kConsumed);
      child->walk_stamp = stamp;
      stack.emplace_back(&child, 0);
    }
  }
  // `order` is post-order (children before parents); iterate in reverse so
  // each node's grad is complete before its backward fires. Once a tensor
  // has had its turn, every consumer of it in the tape has fired, so the
  // walk releases its node (the closure, its saved buffers and its
  // references to the inputs) and its gradient, then drops its own
  // reference. One node goes at a time, so no release cascades down the
  // tape; the inputs live on in `order` until their own turns.
  impl_->EnsureGrad();
  impl_->grad[0] += 1.0f;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorImpl& t = **it;
    if (!t.grad.empty()) t.node->Backward(t);
    t.node.reset();
    std::vector<float>().swap(t.grad);
    t.consumed = true;
    it->reset();
  }
}

NoGradGuard::NoGradGuard() : previous_(g_grad_enabled) {
  g_grad_enabled = false;
}

NoGradGuard::~NoGradGuard() { g_grad_enabled = previous_; }

bool NoGradGuard::GradEnabled() { return g_grad_enabled; }

}  // namespace cyqr
