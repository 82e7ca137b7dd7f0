#include "tensor/autograd.h"

#include <cmath>

#include "core/check.h"

namespace cyqr {

namespace {
thread_local int64_t g_op_count = 0;
}  // namespace

namespace autograd_internal {

Tensor OpOutput(const Shape& shape, std::vector<float> data) {
  CYQR_CHECK_EQ(static_cast<size_t>(shape.NumElements()), data.size());
  ++g_op_count;
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = shape;
  impl->data = std::move(data);
  return Tensor(std::move(impl));
}

}  // namespace autograd_internal

int64_t ThreadOpCount() { return g_op_count; }

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
