#include "nn/module.h"

#include <cmath>

#include "core/check.h"

namespace cyqr {

std::vector<Tensor> Module::Parameters() const {
  std::vector<Tensor> out = params_;
  for (const Module* child : children_) {
    std::vector<Tensor> sub = child->Parameters();
    out.insert(out.end(), sub.begin(), sub.end());
  }
  return out;
}

int64_t Module::NumParameters() const {
  int64_t n = 0;
  for (const Tensor& p : Parameters()) n += p.NumElements();
  return n;
}

void Module::SetTraining(bool training) {
  training_ = training;
  for (Module* child : children_) child->SetTraining(training);
}

Tensor Module::RegisterParameter(Tensor t) {
  CYQR_CHECK(t.defined());
  t.set_requires_grad(true);
  params_.push_back(t);
  return t;
}

void Module::RegisterModule(Module* child) {
  CYQR_CHECK(child != nullptr);
  children_.push_back(child);
}

double ClipGradNorm(const std::vector<Tensor>& params, double max_norm) {
  double sq = 0.0;
  for (const Tensor& p : params) {
    const float* g = p.grad();
    if (g == nullptr) continue;
    const int64_t n = p.NumElements();
    for (int64_t i = 0; i < n; ++i) {
      sq += static_cast<double>(g[i]) * g[i];
    }
  }
  const double norm = std::sqrt(sq);
  if (norm > max_norm && norm > 0.0) {
    const float scale = static_cast<float>(max_norm / norm);
    for (const Tensor& p : params) {
      Tensor t = p;
      if (!t.has_grad()) continue;
      float* g = t.mutable_grad();
      const int64_t n = t.NumElements();
      for (int64_t i = 0; i < n; ++i) g[i] *= scale;
    }
  }
  return norm;
}

}  // namespace cyqr
