#include "tensor/autograd.h"

#include <cmath>

#include "core/check.h"

namespace cyqr {

Tensor MakeOpResult(const Shape& shape, std::vector<float> data,
                    std::vector<Tensor> inputs,
                    std::function<void(TensorImpl&)> backward,
                    const char* name) {
  CYQR_CHECK_EQ(static_cast<size_t>(shape.NumElements()), data.size());
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = shape;
  impl->data = std::move(data);

  bool needs_grad = false;
  if (NoGradGuard::GradEnabled()) {
    for (const Tensor& t : inputs) {
      if (t.defined() && (t.requires_grad() || t.impl()->node != nullptr)) {
        needs_grad = true;
        break;
      }
    }
  }
  if (needs_grad) {
    auto node = std::make_shared<GradNode>();
    node->name = name;
    node->inputs.reserve(inputs.size());
    for (const Tensor& t : inputs) node->inputs.push_back(t.impl());
    node->backward = std::move(backward);
    impl->node = std::move(node);
    impl->requires_grad = true;
  }
  return Tensor(std::move(impl));
}

double GradCheck(const std::function<Tensor()>& fn, Tensor input, float eps) {
  CYQR_CHECK(input.requires_grad());
  // Analytic gradient.
  input.ZeroGrad();
  Tensor loss = fn();
  loss.Backward();
  const float* analytic = input.grad();
  CYQR_CHECK(analytic != nullptr);
  std::vector<float> analytic_copy(analytic,
                                   analytic + input.NumElements());

  double max_err = 0.0;
  float* x = input.data();
  const int64_t n = input.NumElements();
  for (int64_t i = 0; i < n; ++i) {
    const float saved = x[i];
    x[i] = saved + eps;
    const double up = fn().item();
    x[i] = saved - eps;
    const double down = fn().item();
    x[i] = saved;
    const double numeric = (up - down) / (2.0 * eps);
    max_err = std::max(max_err, std::fabs(numeric - analytic_copy[i]));
  }
  return max_err;
}

}  // namespace cyqr
