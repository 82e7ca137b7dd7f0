#include "tensor/shape.h"

#include "core/check.h"

namespace cyqr {

Shape::Shape(std::initializer_list<int64_t> dims) : dims_(dims) {
  for (int64_t d : dims_) CYQR_CHECK_GE(d, 0);
}

Shape::Shape(std::vector<int64_t> dims) : dims_(std::move(dims)) {
  for (int64_t d : dims_) CYQR_CHECK_GE(d, 0);
}

int64_t Shape::dim(int i) const {
  CYQR_CHECK(i >= 0 && i < rank());
  return dims_[i];
}

std::string Shape::ToString() const {
  std::string out = "[";
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(dims_[i]);
  }
  out += "]";
  return out;
}

}  // namespace cyqr
