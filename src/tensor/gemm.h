#ifndef CYCLEQR_TENSOR_GEMM_H_
#define CYCLEQR_TENSOR_GEMM_H_

// The blocked GEMM kernel under MatMul. Internal to the tensor library;
// exposed so tests can check every vector width against the plain loop and
// benches can time them side by side.

#include <cstdint>
#include <vector>

namespace cyqr {

/// C(m x n) (+)= op(A) * op(B) where op(A) is m x k and op(B) is k x n.
/// Physical layouts (row-major): A is (k x m) when trans_a else (m x k);
/// B is (n x k) when trans_b else (k x n).
///
/// Every C element starts from C (+0 unless accumulating) and adds its k
/// products in p order, one multiply and one add each, whatever the block
/// or vector width it falls in, so the result is bit-identical to the plain
/// i-p-j loop for any tiling, batching or row split of the same product
/// (finite inputs; see DESIGN.md). Runs at the widest width in
/// GemmWidths().
void GemmRaw(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
             const float* a, const float* b, float* c, bool accumulate);

/// The vector widths, in floats per register, that this host's CPU can run
/// the kernel at, narrowest first: 4 always, then 8 (AVX2) and 16
/// (AVX-512F) on x86-64 CPUs that have them. Fixed for the process.
const std::vector<int>& GemmWidths();

/// GemmRaw at one width from GemmWidths(); dies on any other width.
void GemmAtWidth(int width, bool trans_a, bool trans_b, int64_t m, int64_t n,
                 int64_t k, const float* a, const float* b, float* c,
                 bool accumulate);

}  // namespace cyqr

#endif  // CYCLEQR_TENSOR_GEMM_H_
