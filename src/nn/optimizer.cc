#include "nn/optimizer.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"

namespace cyqr {

Adam::Adam(std::vector<Tensor> params, const Options& options)
    : params_(std::move(params)), options_(options) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Tensor& p : params_) {
    m_.emplace_back(p.NumElements(), 0.0f);
    v_.emplace_back(p.NumElements(), 0.0f);
  }
}

namespace {

/// Update number `step` of n elements, each one's gradient read as
/// grad(j): the one place the per-element expression is written. The
/// buffers never overlap and every coefficient is a local, so the loop
/// vectorizes, with the same expression per element in the same order.
/// This file is built with -fno-math-errno (src/CMakeLists.txt), so
/// std::sqrt needs no errno call.
template <typename Grad>
void UpdateRun(const Adam::Options& options, int64_t step, int64_t n,
               Grad grad, float* __restrict x, float* __restrict m,
               float* __restrict v) {
  const float b1 = options.beta1;
  const float b2 = options.beta2;
  const float lr = options.learning_rate;
  const float eps = options.eps;
  const float bias1 = 1.0f - std::pow(b1, static_cast<float>(step));
  const float bias2 = 1.0f - std::pow(b2, static_cast<float>(step));
  for (int64_t j = 0; j < n; ++j) {
    const float g = grad(j);
    m[j] = b1 * m[j] + (1.0f - b1) * g;
    v[j] = b2 * v[j] + (1.0f - b2) * g * g;
    const float mhat = m[j] / bias1;
    const float vhat = v[j] / bias2;
    x[j] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

}  // namespace

void Adam::Step() {
  ++step_;
  for (size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = params_[i];
    const float* __restrict g = p.grad();
    if (g == nullptr) continue;
    UpdateRun(options_, step_, p.NumElements(),
              [g](int64_t j) { return g[j]; }, p.data(), m_[i].data(),
              v_[i].data());
  }
}

void Adam::StepRange(int64_t step, int64_t begin, int64_t end,
                     const float* flat_grad, float grad_scale,
                     float clip_scale) {
  CYQR_CHECK(begin >= 0 && begin <= end);
  int64_t offset = 0;  // Flat index of params_[i]'s first element.
  for (size_t i = 0; i < params_.size() && offset < end; ++i) {
    const int64_t n = params_[i].NumElements();
    const int64_t lo = std::max(begin, offset);
    const int64_t hi = std::min(end, offset + n);
    if (lo < hi) {
      const float* __restrict g = flat_grad + lo;
      const int64_t at = lo - offset;
      UpdateRun(
          options_, step, hi - lo,
          [g, grad_scale, clip_scale](int64_t j) {
            return (g[j] * grad_scale) * clip_scale;
          },
          params_[i].data() + at, m_[i].data() + at, v_[i].data() + at);
    }
    offset += n;
  }
  CYQR_CHECK_LE(end, offset);
}

void Adam::ZeroGrad() {
  for (Tensor& p : params_) p.ZeroGrad();
}

AdamState Adam::ExportState() const {
  AdamState state;
  state.step = step_;
  state.m = m_;
  state.v = v_;
  return state;
}

Status Adam::ImportState(const AdamState& state) {
  if (state.step < 0) {
    return Status::InvalidArgument("optimizer state: negative step");
  }
  if (state.m.size() != params_.size() ||
      state.v.size() != params_.size()) {
    return Status::InvalidArgument(
        "optimizer state: moment count mismatch (state has " +
        std::to_string(state.m.size()) + "/" +
        std::to_string(state.v.size()) + " vectors, optimizer has " +
        std::to_string(params_.size()) + " parameters)");
  }
  for (size_t i = 0; i < params_.size(); ++i) {
    const size_t n = static_cast<size_t>(params_[i].NumElements());
    if (state.m[i].size() != n || state.v[i].size() != n) {
      return Status::InvalidArgument(
          "optimizer state: moment size mismatch at parameter " +
          std::to_string(i));
    }
  }
  step_ = state.step;
  m_ = state.m;
  v_ = state.v;
  return Status::OK();
}

}  // namespace cyqr
