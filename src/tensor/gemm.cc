#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>

#include "core/check.h"

namespace cyqr {

namespace {

// The kernel is written once, as templates over the vector width W (floats
// per register), and forced inline into one entry point per width, each
// compiled for its own instruction set. A wide vector therefore never
// crosses a function boundary by value, which would change the ABI (GCC's
// -Wpsabi): vectors are loaded and stored through pointers only.
#define CYQR_GEMM_INLINE inline __attribute__((always_inline))

/// W floats in one register (GCC vector extension). Each lane is plain
/// IEEE float arithmetic, so a lane adds and multiplies exactly as the
/// scalar code would. The library is compiled with -ffp-contract=off, so a
/// multiply and its add are never fused into an FMA, even under an ISA that
/// has one.
template <int W>
struct Vec {
  typedef float type __attribute__((vector_size(W * sizeof(float))));
};

template <typename V>
CYQR_GEMM_INLINE void LoadVec(V* v, const float* p) {
  std::memcpy(v, p, sizeof(V));
}

template <typename V>
CYQR_GEMM_INLINE void StoreVec(float* p, const V* v) {
  std::memcpy(p, v, sizeof(V));
}

/// op(A) rows as the kernels read them: element (r, p) of the rows starting
/// at `a` is a[r * row + p * col].
struct RowsOfA {
  const float* a;
  int64_t row;
  int64_t col;
};

/// C[0..4, 0..2W) += the 4 rows of op(A) times panel[:, 0..2W). The 8W
/// sums stay in eight registers for the whole k loop.
template <int W>
CYQR_GEMM_INLINE void Block4(RowsOfA a, const float* panel, int64_t n,
                             int64_t k, float* c) {
  using V = typename Vec<W>::type;
  float* c0 = c;
  float* c1 = c0 + n;
  float* c2 = c1 + n;
  float* c3 = c2 + n;
  V s00, s01, s10, s11, s20, s21, s30, s31;
  LoadVec(&s00, c0);
  LoadVec(&s01, c0 + W);
  LoadVec(&s10, c1);
  LoadVec(&s11, c1 + W);
  LoadVec(&s20, c2);
  LoadVec(&s21, c2 + W);
  LoadVec(&s30, c3);
  LoadVec(&s31, c3 + W);
  for (int64_t p = 0; p < k; ++p) {
    V b0, b1;
    LoadVec(&b0, panel + p * n);
    LoadVec(&b1, panel + p * n + W);
    const float* ap = a.a + p * a.col;
    const float x0 = ap[0];
    const float x1 = ap[a.row];
    const float x2 = ap[2 * a.row];
    const float x3 = ap[3 * a.row];
    s00 += x0 * b0;
    s01 += x0 * b1;
    s10 += x1 * b0;
    s11 += x1 * b1;
    s20 += x2 * b0;
    s21 += x2 * b1;
    s30 += x3 * b0;
    s31 += x3 * b1;
  }
  StoreVec(c0, &s00);
  StoreVec(c0 + W, &s01);
  StoreVec(c1, &s10);
  StoreVec(c1 + W, &s11);
  StoreVec(c2, &s20);
  StoreVec(c2 + W, &s21);
  StoreVec(c3, &s30);
  StoreVec(c3 + W, &s31);
}

/// C[0, 0..2W) += one row of op(A) times panel[:, 0..2W).
template <int W>
CYQR_GEMM_INLINE void Block1(RowsOfA a, const float* panel, int64_t n,
                             int64_t k, float* c) {
  using V = typename Vec<W>::type;
  V s0, s1;
  LoadVec(&s0, c);
  LoadVec(&s1, c + W);
  for (int64_t p = 0; p < k; ++p) {
    const float x = a.a[p * a.col];
    V b0, b1;
    LoadVec(&b0, panel + p * n);
    LoadVec(&b1, panel + p * n + W);
    s0 += x * b0;
    s1 += x * b1;
  }
  StoreVec(c, &s0);
  StoreVec(c + W, &s1);
}

/// C[0..rows, j0..n) one element at a time, for the columns left over
/// after the narrowest blocks.
void ScalarColumns(RowsOfA a, int64_t rows, const float* panel, int64_t n,
                   int64_t k, int64_t j0, float* c) {
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t j = j0; j < n; ++j) {
      float s = c[r * n + j];
      for (int64_t p = 0; p < k; ++p) {
        s += a.a[r * a.row + p * a.col] * panel[p * n + j];
      }
      c[r * n + j] = s;
    }
  }
}

/// C[0..R, j0..n) for R = 4 or 1 rows of op(A): 2W-wide blocks, then the
/// columns left over at the next narrower width, and after W = 4 one
/// element at a time.
template <int W, int R>
CYQR_GEMM_INLINE void Columns(RowsOfA a, const float* panel, int64_t n,
                              int64_t k, int64_t j0, float* c) {
  int64_t j = j0;
  for (; j + 2 * W <= n; j += 2 * W) {
    if constexpr (R == 4) {
      Block4<W>(a, panel + j, n, k, c + j);
    } else {
      Block1<W>(a, panel + j, n, k, c + j);
    }
  }
  if constexpr (W > 4) {
    Columns<W / 2, R>(a, panel, n, k, j, c);
  } else {
    ScalarColumns(a, R, panel, n, k, j, c);
  }
}

/// C += op(A) * panel at width W: 4-row blocks, then the rows left over one
/// at a time. The panel is op(B) as a row-major k x n matrix.
template <int W>
CYQR_GEMM_INLINE void Kernel(bool trans_a, int64_t m, int64_t n, int64_t k,
                             const float* a, const float* panel, float* c) {
  const int64_t row = trans_a ? 1 : k;
  const int64_t col = trans_a ? m : 1;
  int64_t i = 0;
  for (; i + 4 <= m; i += 4) {
    Columns<W, 4>({a + i * row, row, col}, panel, n, k, 0, c + i * n);
  }
  for (; i < m; ++i) {
    Columns<W, 1>({a + i * row, row, col}, panel, n, k, 0, c + i * n);
  }
}

using KernelFn = void (*)(bool trans_a, int64_t m, int64_t n, int64_t k,
                          const float* a, const float* panel, float* c);

// One entry point per width. W = 4 is baseline SSE2 on x86-64 and the only
// instance elsewhere; the wider ones are compiled for their ISA and run
// only where the CPU has it.
void Kernel4(bool trans_a, int64_t m, int64_t n, int64_t k, const float* a,
             const float* panel, float* c) {
  Kernel<4>(trans_a, m, n, k, a, panel, c);
}

#if defined(__x86_64__) || defined(__i386__)
#define CYQR_GEMM_WIDE_KERNELS 1

__attribute__((target("avx2"))) void Kernel8(bool trans_a, int64_t m,
                                             int64_t n, int64_t k,
                                             const float* a,
                                             const float* panel, float* c) {
  Kernel<8>(trans_a, m, n, k, a, panel, c);
}

__attribute__((target("avx512f"))) void Kernel16(bool trans_a, int64_t m,
                                                 int64_t n, int64_t k,
                                                 const float* a,
                                                 const float* panel,
                                                 float* c) {
  Kernel<16>(trans_a, m, n, k, a, panel, c);
}
#endif

/// The kernel for one width from GemmWidths().
KernelFn KernelAtWidth(int width) {
  const std::vector<int>& widths = GemmWidths();
  CYQR_CHECK_MSG(std::find(widths.begin(), widths.end(), width) !=
                     widths.end(),
                 "GEMM vector width not supported on this CPU");
#ifdef CYQR_GEMM_WIDE_KERNELS
  if (width == 16) return &Kernel16;
  if (width == 8) return &Kernel8;
#endif
  return &Kernel4;
}

/// C (+)= op(A) * op(B) through `kernel`, which reads op(B) as a row-major
/// k x n panel.
void Gemm(KernelFn kernel, bool trans_a, bool trans_b, int64_t m, int64_t n,
          int64_t k, const float* a, const float* b, float* c,
          bool accumulate) {
  if (!accumulate) std::memset(c, 0, sizeof(float) * m * n);
  if (k == 0) return;  // An empty A or B may have no storage to offset.
  const float* panel = b;
  if (trans_b) {
    thread_local std::vector<float> packed;
    packed.resize(static_cast<size_t>(k * n));
    for (int64_t p = 0; p < k; ++p) {
      for (int64_t j = 0; j < n; ++j) packed[p * n + j] = b[j * k + p];
    }
    panel = packed.data();
  }
  kernel(trans_a, m, n, k, a, panel, c);
}

}  // namespace

const std::vector<int>& GemmWidths() {
  static const std::vector<int> widths = [] {
    std::vector<int> w = {4};
#ifdef CYQR_GEMM_WIDE_KERNELS
    // Needed when this runs before libgcc's own constructor, e.g. from
    // another static initializer.
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) {
      w.push_back(8);
      if (__builtin_cpu_supports("avx512f")) w.push_back(16);
    }
#endif
    return w;
  }();
  return widths;
}

void GemmRaw(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
             const float* a, const float* b, float* c, bool accumulate) {
  static const KernelFn widest = KernelAtWidth(GemmWidths().back());
  Gemm(widest, trans_a, trans_b, m, n, k, a, b, c, accumulate);
}

void GemmAtWidth(int width, bool trans_a, bool trans_b, int64_t m, int64_t n,
                 int64_t k, const float* a, const float* b, float* c,
                 bool accumulate) {
  Gemm(KernelAtWidth(width), trans_a, trans_b, m, n, k, a, b, c, accumulate);
}

}  // namespace cyqr
