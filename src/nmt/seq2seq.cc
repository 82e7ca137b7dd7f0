#include "nmt/seq2seq.h"

#include <algorithm>

#include "core/check.h"

namespace cyqr {

std::vector<std::vector<float>> Seq2SeqModel::StepBatch(
    const std::vector<DecodeState*>& states,
    const std::vector<int32_t>& tokens) const {
  CYQR_CHECK_EQ(states.size(), tokens.size());
  std::vector<std::vector<float>> rows;
  rows.reserve(states.size());
  for (size_t i = 0; i < states.size(); ++i) {
    rows.push_back(Step(*states[i], tokens[i]));
  }
  return rows;
}

Tensor StackStates(const std::vector<const Tensor*>& parts) {
  CYQR_CHECK(!parts.empty());
  if (parts.size() == 1) return *parts[0];
  const Shape& one = parts[0]->shape();
  const int64_t per = one.NumElements();
  std::vector<float> out(parts.size() * static_cast<size_t>(per));
  for (size_t i = 0; i < parts.size(); ++i) {
    CYQR_CHECK(parts[i]->shape() == one);
    std::copy_n(parts[i]->data(), per, out.data() + i * per);
  }
  std::vector<int64_t> dims(one.dims().begin(), one.dims().end());
  dims[0] *= static_cast<int64_t>(parts.size());
  return Tensor::FromData(Shape(dims), std::move(out));
}

std::vector<std::vector<float>> SplitRows(const Tensor& logits) {
  const int64_t k = logits.shape().dim(0);
  const int64_t v = logits.NumElements() / k;
  std::vector<std::vector<float>> rows(static_cast<size_t>(k));
  for (int64_t i = 0; i < k; ++i) {
    rows[i].assign(logits.data() + i * v, logits.data() + (i + 1) * v);
  }
  return rows;
}

}  // namespace cyqr
