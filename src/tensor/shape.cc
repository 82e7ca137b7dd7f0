#include "tensor/shape.h"

#include "core/check.h"

namespace cyqr {

Shape::Shape(std::span<const int64_t> dims)
    : rank_(static_cast<int>(dims.size())) {
  CYQR_CHECK_LE(dims.size(), static_cast<size_t>(kMaxRank));
  for (int i = 0; i < rank_; ++i) {
    CYQR_CHECK_GE(dims[i], 0);
    dims_[i] = dims[i];
  }
}

int64_t Shape::dim(int i) const {
  CYQR_CHECK(i >= 0 && i < rank());
  return dims_[i];
}

std::string Shape::ToString() const {
  std::string out = "[";
  for (int i = 0; i < rank_; ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(dims_[i]);
  }
  out += "]";
  return out;
}

}  // namespace cyqr
