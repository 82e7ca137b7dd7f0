#include "nn/grad_accum.h"

#include <cstring>

#include "core/check.h"

namespace cyqr {

int64_t TotalParameterSize(const std::vector<Tensor>& params) {
  int64_t total = 0;
  for (const Tensor& p : params) total += p.NumElements();
  return total;
}

void FlattenGradients(const std::vector<Tensor>& params,
                      std::vector<float>* flat) {
  CYQR_CHECK(flat != nullptr);
  CYQR_CHECK_EQ(static_cast<int64_t>(flat->size()),
                TotalParameterSize(params));
  float* out = flat->data();
  for (const Tensor& p : params) {
    const float* grad = p.grad();
    const size_t n = static_cast<size_t>(p.NumElements());
    if (grad == nullptr) {
      std::memset(out, 0, n * sizeof(float));
    } else {
      std::memcpy(out, grad, n * sizeof(float));
    }
    out += n;
  }
}

void CopyParameters(const std::vector<Tensor>& dst,
                    const std::vector<Tensor>& src) {
  CYQR_CHECK_EQ(dst.size(), src.size());
  for (size_t i = 0; i < dst.size(); ++i) {
    Tensor d = dst[i];
    const Tensor& s = src[i];
    CYQR_CHECK_EQ(d.NumElements(), s.NumElements());
    std::memcpy(d.data(), s.data(),
                static_cast<size_t>(d.NumElements()) * sizeof(float));
  }
}

}  // namespace cyqr
