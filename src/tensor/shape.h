#ifndef CYCLEQR_TENSOR_SHAPE_H_
#define CYCLEQR_TENSOR_SHAPE_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace cyqr {

/// Dense row-major tensor shape. The library works with ranks 0 (scalar)
/// through 3 ([batch, seq, dim]), which covers every architecture in the
/// paper (transformer / RNN / GRU / attention seq2seq).
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<int64_t> dims);
  explicit Shape(std::vector<int64_t> dims);

  int rank() const { return static_cast<int>(dims_.size()); }
  int64_t dim(int i) const;
  /// Last dimension; 1 for scalars.
  int64_t back() const { return dims_.empty() ? 1 : dims_.back(); }
  int64_t NumElements() const {
    int64_t n = 1;
    for (int64_t d : dims_) n *= d;
    return n;
  }

  const std::vector<int64_t>& dims() const { return dims_; }

  bool operator==(const Shape& other) const { return dims_ == other.dims_; }
  bool operator!=(const Shape& other) const { return !(*this == other); }

  /// e.g. "[2, 3, 8]".
  std::string ToString() const;

 private:
  std::vector<int64_t> dims_;
};

}  // namespace cyqr

#endif  // CYCLEQR_TENSOR_SHAPE_H_
