#include "nn/optimizer.h"

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

void Adam::Step() {
  ++step_;
  const float b1 = options_.beta1;
  const float b2 = options_.beta2;
  const float lr = options_.learning_rate;
  const float eps = options_.eps;
  const float bias1 = 1.0f - std::pow(b1, static_cast<float>(step_));
  const float bias2 = 1.0f - std::pow(b2, static_cast<float>(step_));
  for (size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = params_[i];
    const float* __restrict g = p.grad();
    if (g == nullptr) continue;
    // The buffers never overlap and every coefficient is a local, so the
    // loop vectorizes, with the same expression per element in the same
    // order. This file is built with -fno-math-errno (src/CMakeLists.txt),
    // so std::sqrt needs no errno call.
    float* __restrict x = p.data();
    float* __restrict m = m_[i].data();
    float* __restrict v = v_[i].data();
    const int64_t n = p.NumElements();
    for (int64_t j = 0; j < n; ++j) {
      m[j] = b1 * m[j] + (1.0f - b1) * g[j];
      v[j] = b2 * v[j] + (1.0f - b2) * g[j] * g[j];
      const float mhat = m[j] / bias1;
      const float vhat = v[j] / bias2;
      x[j] -= lr * mhat / (std::sqrt(vhat) + eps);
    }
  }
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
