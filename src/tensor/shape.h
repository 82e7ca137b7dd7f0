#ifndef CYCLEQR_TENSOR_SHAPE_H_
#define CYCLEQR_TENSOR_SHAPE_H_

#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>

namespace cyqr {

/// Dense row-major tensor shape. The library works with ranks 0 (scalar)
/// through 3 ([batch, seq, dim]), which covers every architecture in the
/// paper (transformer / RNN / GRU / attention seq2seq). The dims live
/// inline, so building or copying a shape never allocates; a rank above
/// kMaxRank fails a check.
class Shape {
 public:
  static constexpr int kMaxRank = 4;

  Shape() = default;
  Shape(std::initializer_list<int64_t> dims)
      : Shape(std::span<const int64_t>(dims.begin(), dims.size())) {}
  explicit Shape(std::span<const int64_t> dims);

  int rank() const { return rank_; }
  int64_t dim(int i) const;
  /// Last dimension; 1 for scalars.
  int64_t back() const { return rank_ == 0 ? 1 : dims_[rank_ - 1]; }
  int64_t NumElements() const {
    int64_t n = 1;
    for (int i = 0; i < rank_; ++i) n *= dims_[i];
    return n;
  }

  std::span<const int64_t> dims() const {
    return {dims_.data(), static_cast<size_t>(rank_)};
  }

  bool operator==(const Shape& other) const {
    if (rank_ != other.rank_) return false;
    for (int i = 0; i < rank_; ++i) {
      if (dims_[i] != other.dims_[i]) return false;
    }
    return true;
  }
  bool operator!=(const Shape& other) const { return !(*this == other); }

  /// e.g. "[2, 3, 8]".
  std::string ToString() const;

 private:
  std::array<int64_t, kMaxRank> dims_{};
  int rank_ = 0;
};

}  // namespace cyqr

#endif  // CYCLEQR_TENSOR_SHAPE_H_
