#include "tensor/ops.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "core/check.h"
#include "core/math.h"
#include "tensor/autograd.h"
#include "tensor/gemm.h"

namespace cyqr {

namespace {

// What each op's backward reads besides the upstream gradient (see
// BackwardReads): nothing; its own output; its first two inputs (MatMul
// and Mul both, Affine x and W, LayerNorm x and gamma); or its one input
// and its output (GroupLogSumExp).
constexpr BackwardReads kReadsNothing{};
constexpr BackwardReads kReadsOutput{.output = true};
constexpr BackwardReads kReadsFirstTwoInputs{.inputs = 0b11};
constexpr BackwardReads kReadsInputAndOutput{.inputs = 0b1, .output = true};

/// Accumulates `delta` into the input's grad buffer (allocating if needed).
void AccumInto(TensorImpl& in, const std::vector<float>& delta) {
  in.EnsureGrad();
  CYQR_CHECK_EQ(in.grad.size(), delta.size());
  for (size_t i = 0; i < delta.size(); ++i) in.grad[i] += delta[i];
}

struct MatDims {
  int64_t batch;  // 1 for rank-2.
  int64_t rows;   // Physical trailing dims.
  int64_t cols;
};

MatDims GetMatDims(const Shape& s) {
  CYQR_CHECK(s.rank() == 2 || s.rank() == 3);
  if (s.rank() == 2) return {1, s.dim(0), s.dim(1)};
  return {s.dim(0), s.dim(1), s.dim(2)};
}

/// `s` with its last dimension replaced by `d`.
Shape WithLastDim(const Shape& s, int64_t d) {
  CYQR_CHECK_GT(s.rank(), 0);
  std::array<int64_t, Shape::kMaxRank> dims{};
  std::copy(s.dims().begin(), s.dims().end(), dims.begin());
  dims[s.rank() - 1] = d;
  return Shape(std::span<const int64_t>(dims.data(), s.rank()));
}

/// dx[i] += dy[i] where y[i] > 0, selected through an integer mask rather
/// than a branch: the sign of y is data, so a branch on it mispredicts
/// (and GCC turns a float ?: back into one). The bits are the branch's.
/// y = x > 0 ? x : 0 is positive exactly where x > 0 (a NaN or -0 input
/// gives +0), so the mask on the output is the mask on the input, and the
/// input need not be kept.
void ReluBackward(const float* __restrict y, const float* __restrict dy,
                  float* __restrict dx, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const uint32_t taken = std::bit_cast<uint32_t>(dx[i] + dy[i]);
    const uint32_t kept = std::bit_cast<uint32_t>(dx[i]);
    const uint32_t mask = 0u - static_cast<uint32_t>(y[i] > 0.0f);
    dx[i] = std::bit_cast<float>((taken & mask) | (kept & ~mask));
  }
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  const bool bias_broadcast =
      b.shape().rank() == 1 && a.shape().rank() > 1 &&
      a.shape().back() == b.shape().dim(0);
  CYQR_CHECK(bias_broadcast || a.shape() == b.shape());
  const int64_t n = a.NumElements();
  const int64_t d = b.NumElements();
  std::vector<float> out(n);
  const float* pa = a.data();
  const float* pb = b.data();
  if (bias_broadcast) {
    // Row by row: d == 0 only when n == 0.
    for (int64_t row = 0; row < n; row += d) {
      for (int64_t j = 0; j < d; ++j) out[row + j] = pa[row + j] + pb[j];
    }
  } else {
    for (int64_t i = 0; i < n; ++i) out[i] = pa[i] + pb[i];
  }
  return MakeOpResult(
      a.shape(), std::move(out), {a, b}, kReadsNothing,
      [n, d, bias_broadcast](TensorImpl& o, TensorImpl& ia, TensorImpl& ib) {
        if (ia.requires_grad || ia.node) {
          AccumInto(ia, o.grad);
        }
        if (ib.requires_grad || ib.node) {
          ib.EnsureGrad();
          if (bias_broadcast) {
            for (int64_t row = 0; row < n; row += d) {
              for (int64_t j = 0; j < d; ++j) ib.grad[j] += o.grad[row + j];
            }
          } else {
            for (int64_t i = 0; i < n; ++i) ib.grad[i] += o.grad[i];
          }
        }
      },
      "Add");
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CYQR_CHECK(a.shape() == b.shape());
  const int64_t n = a.NumElements();
  std::vector<float> out(n);
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < n; ++i) out[i] = pa[i] - pb[i];
  return MakeOpResult(
      a.shape(), std::move(out), {a, b}, kReadsNothing,
      [n](TensorImpl& o, TensorImpl& ia, TensorImpl& ib) {
        if (ia.requires_grad || ia.node) {
          AccumInto(ia, o.grad);
        }
        if (ib.requires_grad || ib.node) {
          ib.EnsureGrad();
          for (int64_t i = 0; i < n; ++i) ib.grad[i] -= o.grad[i];
        }
      },
      "Sub");
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CYQR_CHECK(a.shape() == b.shape());
  const int64_t n = a.NumElements();
  std::vector<float> out(n);
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < n; ++i) out[i] = pa[i] * pb[i];
  return MakeOpResult(
      a.shape(), std::move(out), {a, b}, kReadsFirstTwoInputs,
      [n](TensorImpl& o, TensorImpl& ia, TensorImpl& ib) {
        if (ia.requires_grad || ia.node) {
          ia.EnsureGrad();
          for (int64_t i = 0; i < n; ++i) {
            ia.grad[i] += o.grad[i] * ib.data[i];
          }
        }
        if (ib.requires_grad || ib.node) {
          ib.EnsureGrad();
          for (int64_t i = 0; i < n; ++i) {
            ib.grad[i] += o.grad[i] * ia.data[i];
          }
        }
      },
      "Mul");
}

Tensor Scale(const Tensor& a, float s) {
  const int64_t n = a.NumElements();
  std::vector<float> out(n);
  const float* pa = a.data();
  for (int64_t i = 0; i < n; ++i) out[i] = pa[i] * s;
  return MakeOpResult(
      a.shape(), std::move(out), {a}, kReadsNothing,
      [s, n](TensorImpl& o, TensorImpl& ia) {
        ia.EnsureGrad();
        for (int64_t i = 0; i < n; ++i) ia.grad[i] += o.grad[i] * s;
      },
      "Scale");
}

Tensor AddScalar(const Tensor& a, float s) {
  const int64_t n = a.NumElements();
  std::vector<float> out(n);
  const float* pa = a.data();
  for (int64_t i = 0; i < n; ++i) out[i] = pa[i] + s;
  return MakeOpResult(
      a.shape(), std::move(out), {a}, kReadsNothing,
      [](TensorImpl& o, TensorImpl& ia) { AccumInto(ia, o.grad); },
      "AddScalar");
}

Tensor MatMul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  const MatDims da = GetMatDims(a.shape());
  const MatDims db = GetMatDims(b.shape());
  int64_t m = trans_a ? da.cols : da.rows;
  const int64_t k = trans_a ? da.rows : da.cols;
  const int64_t kb = trans_b ? db.cols : db.rows;
  const int64_t n = trans_b ? db.rows : db.cols;
  CYQR_CHECK_EQ(k, kb);
  const bool b_shared = (b.shape().rank() == 2);
  CYQR_CHECK(b_shared || db.batch == da.batch);
  int64_t batch = da.batch;

  Shape out_shape = (a.shape().rank() == 3) ? Shape{batch, m, n} : Shape{m, n};
  if (b_shared && !trans_a) {
    // A batch against a shared B is one product of batch * m rows: each
    // row's sums are unchanged, and dB contracts the rows in the order the
    // per-batch loop would.
    m *= batch;
    batch = 1;
  }
  // The vector starts at +0, so the GEMM accumulates into it rather than
  // zero it a second time.
  std::vector<float> out(batch * m * n);
  const float* pa = a.data();
  const float* pb = b.data();
  const int64_t a_stride = da.rows * da.cols;
  const int64_t b_stride = b_shared ? 0 : db.rows * db.cols;
  for (int64_t bi = 0; bi < batch; ++bi) {
    GemmRaw(trans_a, trans_b, m, n, k, pa + bi * a_stride, pb + bi * b_stride,
            out.data() + bi * m * n, /*accumulate=*/true);
  }

  return MakeOpResult(
      out_shape, std::move(out), {a, b}, kReadsFirstTwoInputs,
      [m, n, k, batch, a_stride, b_stride, trans_a, trans_b](
          TensorImpl& o, TensorImpl& ia, TensorImpl& ib) {
        const float* dc = o.grad.data();
        if (ia.requires_grad || ia.node) {
          ia.EnsureGrad();
          for (int64_t bi = 0; bi < batch; ++bi) {
            const float* dcb = dc + bi * m * n;
            const float* pb = ib.data.data() + bi * b_stride;
            float* dab = ia.grad.data() + bi * a_stride;
            if (!trans_a) {
              // dA = dC * op(B)^T, an (m x k) result contracting n.
              GemmRaw(false, !trans_b, m, k, n, dcb, pb, dab, true);
            } else {
              // A physical is (k x m): dA_phys = op(B) * dC^T.
              GemmRaw(trans_b, true, k, m, n, pb, dcb, dab, true);
            }
          }
        }
        if (ib.requires_grad || ib.node) {
          ib.EnsureGrad();
          for (int64_t bi = 0; bi < batch; ++bi) {
            const float* dcb = dc + bi * m * n;
            const float* pa = ia.data.data() + bi * a_stride;
            float* dbb = ib.grad.data() + bi * b_stride;
            if (!trans_b) {
              // dB = op(A)^T * dC, a (k x n) result contracting m.
              GemmRaw(!trans_a, false, k, n, m, pa, dcb, dbb, true);
            } else {
              // B physical is (n x k): dB_phys = dC^T * op(A).
              GemmRaw(true, trans_a, n, k, m, dcb, pa, dbb, true);
            }
          }
        }
      },
      "MatMul");
}

Tensor Affine(const Tensor& x, const Tensor& w, const Tensor& b) {
  const MatDims dx = GetMatDims(x.shape());
  CYQR_CHECK_EQ(w.shape().rank(), 2);
  CYQR_CHECK_EQ(w.shape().dim(0), dx.cols);
  const int64_t m = dx.batch * dx.rows;
  const int64_t k = dx.cols;
  const int64_t n = w.shape().dim(1);
  CYQR_CHECK(b.shape().rank() == 1 && b.shape().dim(0) == n);
  std::vector<float> out(m * n);  // +0, as in MatMul.
  GemmRaw(false, false, m, n, k, x.data(), w.data(), out.data(),
          /*accumulate=*/true);
  const float* pb = b.data();
  for (int64_t r = 0; r < m; ++r) {
    float* row = out.data() + r * n;
    for (int64_t j = 0; j < n; ++j) row[j] = row[j] + pb[j];
  }
  return MakeOpResult(
      WithLastDim(x.shape(), n), std::move(out), {x, w, b},
      kReadsFirstTwoInputs,
      [m, n, k](TensorImpl& o, TensorImpl& ix, TensorImpl& iw, TensorImpl& ib) {
        // dY is read where the pair's MatMul read 0 + dY: the same bits,
        // because no stored gradient is -0 (see DESIGN.md).
        const float* dy = o.grad.data();
        if (ib.requires_grad || ib.node) {
          ib.EnsureGrad();
          float* db = ib.grad.data();
          for (int64_t r = 0; r < m; ++r) {
            for (int64_t j = 0; j < n; ++j) db[j] += dy[r * n + j];
          }
        }
        if (ix.requires_grad || ix.node) {
          ix.EnsureGrad();
          GemmRaw(false, true, m, k, n, dy, iw.data.data(), ix.grad.data(),
                  /*accumulate=*/true);
        }
        if (iw.requires_grad || iw.node) {
          iw.EnsureGrad();
          GemmRaw(true, false, k, n, m, ix.data.data(), dy, iw.grad.data(),
                  /*accumulate=*/true);
        }
      },
      "Affine");
}

Tensor TransposeLast2(const Tensor& x) {
  const MatDims d = GetMatDims(x.shape());
  std::vector<float> out(x.NumElements());
  const float* px = x.data();
  for (int64_t b = 0; b < d.batch; ++b) {
    const float* src = px + b * d.rows * d.cols;
    float* dst = out.data() + b * d.rows * d.cols;
    for (int64_t i = 0; i < d.rows; ++i) {
      for (int64_t j = 0; j < d.cols; ++j) {
        dst[j * d.rows + i] = src[i * d.cols + j];
      }
    }
  }
  Shape out_shape = (x.shape().rank() == 3)
                        ? Shape{d.batch, d.cols, d.rows}
                        : Shape{d.cols, d.rows};
  return MakeOpResult(
      out_shape, std::move(out), {x}, kReadsNothing,
      [d](TensorImpl& o, TensorImpl& ix) {
        ix.EnsureGrad();
        for (int64_t b = 0; b < d.batch; ++b) {
          const float* src = o.grad.data() + b * d.rows * d.cols;
          float* dst = ix.grad.data() + b * d.rows * d.cols;
          for (int64_t i = 0; i < d.cols; ++i) {
            for (int64_t j = 0; j < d.rows; ++j) {
              dst[j * d.cols + i] += src[i * d.rows + j];
            }
          }
        }
      },
      "TransposeLast2");
}

Tensor Relu(const Tensor& a) {
  const int64_t n = a.NumElements();
  std::vector<float> out(n);
  const float* pa = a.data();
  for (int64_t i = 0; i < n; ++i) out[i] = pa[i] > 0.0f ? pa[i] : 0.0f;
  return MakeOpResult(
      a.shape(), std::move(out), {a}, kReadsOutput,
      [n](TensorImpl& o, TensorImpl& ia) {
        ia.EnsureGrad();
        ReluBackward(o.data.data(), o.grad.data(), ia.grad.data(), n);
      },
      "Relu");
}

Tensor TanhOp(const Tensor& a) {
  const int64_t n = a.NumElements();
  std::vector<float> out(n);
  const float* pa = a.data();
  for (int64_t i = 0; i < n; ++i) out[i] = std::tanh(pa[i]);
  return MakeOpResult(
      a.shape(), std::move(out), {a}, kReadsOutput,
      [n](TensorImpl& o, TensorImpl& ia) {
        ia.EnsureGrad();
        for (int64_t i = 0; i < n; ++i) {
          const float y = o.data[i];
          ia.grad[i] += o.grad[i] * (1.0f - y * y);
        }
      },
      "Tanh");
}

Tensor SigmoidOp(const Tensor& a) {
  const int64_t n = a.NumElements();
  std::vector<float> out(n);
  const float* pa = a.data();
  for (int64_t i = 0; i < n; ++i) out[i] = 1.0f / (1.0f + std::exp(-pa[i]));
  return MakeOpResult(
      a.shape(), std::move(out), {a}, kReadsOutput,
      [n](TensorImpl& o, TensorImpl& ia) {
        ia.EnsureGrad();
        for (int64_t i = 0; i < n; ++i) {
          const float y = o.data[i];
          ia.grad[i] += o.grad[i] * y * (1.0f - y);
        }
      },
      "Sigmoid");
}

Tensor Softmax(const Tensor& a) {
  const int64_t d = a.shape().back();
  const int64_t rows = a.NumElements() / d;
  std::vector<float> out(a.data(), a.data() + a.NumElements());
  for (int64_t r = 0; r < rows; ++r) {
    SoftmaxInPlace(out.data() + r * d, d);
  }
  return MakeOpResult(
      a.shape(), std::move(out), {a}, kReadsOutput,
      [rows, d](TensorImpl& o, TensorImpl& ia) {
        ia.EnsureGrad();
        for (int64_t r = 0; r < rows; ++r) {
          const float* y = o.data.data() + r * d;
          const float* dy = o.grad.data() + r * d;
          float dot = 0.0f;
          for (int64_t j = 0; j < d; ++j) dot += y[j] * dy[j];
          float* dx = ia.grad.data() + r * d;
          for (int64_t j = 0; j < d; ++j) dx[j] += y[j] * (dy[j] - dot);
        }
      },
      "Softmax");
}

Tensor LogSoftmaxOp(const Tensor& a) {
  const int64_t d = a.shape().back();
  const int64_t rows = a.NumElements() / d;
  std::vector<float> out(a.NumElements());
  const float* pa = a.data();
  for (int64_t r = 0; r < rows; ++r) {
    LogSoftmax(pa + r * d, d, out.data() + r * d);
  }
  return MakeOpResult(
      a.shape(), std::move(out), {a}, kReadsOutput,
      [rows, d](TensorImpl& o, TensorImpl& ia) {
        ia.EnsureGrad();
        for (int64_t r = 0; r < rows; ++r) {
          const float* logp = o.data.data() + r * d;
          const float* dy = o.grad.data() + r * d;
          float sum_dy = 0.0f;
          for (int64_t j = 0; j < d; ++j) sum_dy += dy[j];
          float* dx = ia.grad.data() + r * d;
          for (int64_t j = 0; j < d; ++j) {
            dx[j] += dy[j] - std::exp(logp[j]) * sum_dy;
          }
        }
      },
      "LogSoftmax");
}

Tensor LayerNormOp(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                   float eps) {
  const int64_t d = x.shape().back();
  CYQR_CHECK_EQ(gamma.NumElements(), d);
  CYQR_CHECK_EQ(beta.NumElements(), d);
  const int64_t rows = x.NumElements() / d;
  std::vector<float> out(x.NumElements());
  // Only backward reads each row's mean (as a float) and inverse deviation,
  // [mu, istd] per row: it rebuilds the normalized rows from the input
  // with the forward's expression, so with the same two roundings.
  std::vector<float> stats;
  if (OpRecords({x, gamma, beta})) stats.resize(2 * rows);
  const float* px = x.data();
  const float* pg = gamma.data();
  const float* pb = beta.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = px + r * d;
    double mu = 0.0;
    for (int64_t j = 0; j < d; ++j) mu += row[j];
    mu /= d;
    double var = 0.0;
    for (int64_t j = 0; j < d; ++j) {
      const double c = row[j] - mu;
      var += c * c;
    }
    var /= d;
    const float mu_f = static_cast<float>(mu);
    const float istd = static_cast<float>(1.0 / std::sqrt(var + eps));
    if (!stats.empty()) {
      stats[2 * r] = mu_f;
      stats[2 * r + 1] = istd;
    }
    for (int64_t j = 0; j < d; ++j) {
      const float xh = (row[j] - mu_f) * istd;
      out[r * d + j] = pg[j] * xh + pb[j];
    }
  }
  return MakeOpResult(
      x.shape(), std::move(out), {x, gamma, beta}, kReadsFirstTwoInputs,
      [stats = std::move(stats), rows, d](TensorImpl& o, TensorImpl& ix,
                                          TensorImpl& ig, TensorImpl& ib) {
        if (ig.requires_grad || ig.node) ig.EnsureGrad();
        if (ib.requires_grad || ib.node) ib.EnsureGrad();
        const bool need_x = ix.requires_grad || ix.node != nullptr;
        if (need_x) ix.EnsureGrad();
        for (int64_t r = 0; r < rows; ++r) {
          const float* dy = o.grad.data() + r * d;
          const float* row = ix.data.data() + r * d;
          const float mu = stats[2 * r];
          const float istd = stats[2 * r + 1];
          if (!ig.grad.empty()) {
            for (int64_t j = 0; j < d; ++j) {
              const float xh = (row[j] - mu) * istd;
              ig.grad[j] += dy[j] * xh;
            }
          }
          if (!ib.grad.empty()) {
            for (int64_t j = 0; j < d; ++j) ib.grad[j] += dy[j];
          }
          if (need_x) {
            // dxhat = dy * gamma; dx = istd*(dxhat - mean(dxhat)
            //                               - xhat*mean(dxhat*xhat)).
            float mean_dxh = 0.0f;
            float mean_dxh_xh = 0.0f;
            for (int64_t j = 0; j < d; ++j) {
              const float dxh = dy[j] * ig.data[j];
              mean_dxh += dxh;
              mean_dxh_xh += dxh * ((row[j] - mu) * istd);
            }
            mean_dxh /= d;
            mean_dxh_xh /= d;
            float* dx = ix.grad.data() + r * d;
            for (int64_t j = 0; j < d; ++j) {
              const float dxh = dy[j] * ig.data[j];
              const float xh = (row[j] - mu) * istd;
              dx[j] += istd * (dxh - mean_dxh - xh * mean_dxh_xh);
            }
          }
        }
      },
      "LayerNorm");
}

Tensor DropoutOp(const Tensor& x, float p, Rng& rng, bool training) {
  if (!training || p <= 0.0f) return x;
  CYQR_CHECK_LT(p, 1.0f);
  const int64_t n = x.NumElements();
  const float scale = 1.0f / (1.0f - p);
  // Only backward reads which elements were kept, one byte each; it
  // multiplies by the factor the forward did, scale or 0.
  std::vector<uint8_t> keep;
  if (OpRecords({x})) keep.resize(n);
  std::vector<float> out(n);
  const float* px = x.data();
  for (int64_t i = 0; i < n; ++i) {
    const float m = rng.NextFloat() < p ? 0.0f : scale;
    if (!keep.empty()) keep[i] = m != 0.0f;
    out[i] = px[i] * m;
  }
  return MakeOpResult(
      x.shape(), std::move(out), {x}, kReadsNothing,
      [keep = std::move(keep), scale, n](TensorImpl& o, TensorImpl& ix) {
        ix.EnsureGrad();
        for (int64_t i = 0; i < n; ++i) {
          ix.grad[i] += o.grad[i] * (keep[i] != 0 ? scale : 0.0f);
        }
      },
      "Dropout");
}

Tensor Reshape(const Tensor& x, const Shape& shape) {
  CYQR_CHECK_EQ(shape.NumElements(), x.NumElements());
  std::vector<float> out(x.data(), x.data() + x.NumElements());
  return MakeOpResult(
      shape, std::move(out), {x}, kReadsNothing,
      [](TensorImpl& o, TensorImpl& ix) { AccumInto(ix, o.grad); },
      "Reshape");
}

Tensor SplitHeads(const Tensor& x, int64_t num_heads) {
  CYQR_CHECK_EQ(x.shape().rank(), 3);
  const int64_t b = x.shape().dim(0);
  const int64_t t = x.shape().dim(1);
  const int64_t d = x.shape().dim(2);
  CYQR_CHECK_EQ(d % num_heads, 0);
  const int64_t dh = d / num_heads;
  std::vector<float> out(x.NumElements());
  const float* px = x.data();
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t ti = 0; ti < t; ++ti) {
      for (int64_t h = 0; h < num_heads; ++h) {
        const float* src = px + (bi * t + ti) * d + h * dh;
        float* dst = out.data() + ((bi * num_heads + h) * t + ti) * dh;
        std::memcpy(dst, src, sizeof(float) * dh);
      }
    }
  }
  return MakeOpResult(
      Shape{b * num_heads, t, dh}, std::move(out), {x}, kReadsNothing,
      [b, t, d, dh, num_heads](TensorImpl& o, TensorImpl& ix) {
        ix.EnsureGrad();
        for (int64_t bi = 0; bi < b; ++bi) {
          for (int64_t ti = 0; ti < t; ++ti) {
            for (int64_t h = 0; h < num_heads; ++h) {
              const float* src =
                  o.grad.data() + ((bi * num_heads + h) * t + ti) * dh;
              float* dst = ix.grad.data() + (bi * t + ti) * d + h * dh;
              for (int64_t j = 0; j < dh; ++j) dst[j] += src[j];
            }
          }
        }
      },
      "SplitHeads");
}

Tensor MergeHeads(const Tensor& x, int64_t num_heads) {
  CYQR_CHECK_EQ(x.shape().rank(), 3);
  const int64_t bh = x.shape().dim(0);
  const int64_t t = x.shape().dim(1);
  const int64_t dh = x.shape().dim(2);
  CYQR_CHECK_EQ(bh % num_heads, 0);
  const int64_t b = bh / num_heads;
  const int64_t d = dh * num_heads;
  std::vector<float> out(x.NumElements());
  const float* px = x.data();
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t ti = 0; ti < t; ++ti) {
      for (int64_t h = 0; h < num_heads; ++h) {
        const float* src = px + ((bi * num_heads + h) * t + ti) * dh;
        float* dst = out.data() + (bi * t + ti) * d + h * dh;
        std::memcpy(dst, src, sizeof(float) * dh);
      }
    }
  }
  return MakeOpResult(
      Shape{b, t, d}, std::move(out), {x}, kReadsNothing,
      [b, t, d, dh, num_heads](TensorImpl& o, TensorImpl& ix) {
        ix.EnsureGrad();
        for (int64_t bi = 0; bi < b; ++bi) {
          for (int64_t ti = 0; ti < t; ++ti) {
            for (int64_t h = 0; h < num_heads; ++h) {
              const float* src = o.grad.data() + (bi * t + ti) * d + h * dh;
              float* dst =
                  ix.grad.data() + ((bi * num_heads + h) * t + ti) * dh;
              for (int64_t j = 0; j < dh; ++j) dst[j] += src[j];
            }
          }
        }
      },
      "MergeHeads");
}

Tensor ConcatLastDim(const Tensor& a, const Tensor& b) {
  CYQR_CHECK_EQ(a.shape().rank(), b.shape().rank());
  const int64_t da = a.shape().back();
  const int64_t db = b.shape().back();
  const int64_t rows = a.NumElements() / da;
  CYQR_CHECK_EQ(rows, b.NumElements() / db);
  std::vector<float> out(rows * (da + db));
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t r = 0; r < rows; ++r) {
    std::memcpy(out.data() + r * (da + db), pa + r * da, sizeof(float) * da);
    std::memcpy(out.data() + r * (da + db) + da, pb + r * db,
                sizeof(float) * db);
  }
  return MakeOpResult(
      WithLastDim(a.shape(), da + db), std::move(out), {a, b}, kReadsNothing,
      [rows, da, db](TensorImpl& o, TensorImpl& ia, TensorImpl& ib) {
        if (ia.requires_grad || ia.node) {
          ia.EnsureGrad();
          for (int64_t r = 0; r < rows; ++r) {
            const float* src = o.grad.data() + r * (da + db);
            float* dst = ia.grad.data() + r * da;
            for (int64_t j = 0; j < da; ++j) dst[j] += src[j];
          }
        }
        if (ib.requires_grad || ib.node) {
          ib.EnsureGrad();
          for (int64_t r = 0; r < rows; ++r) {
            const float* src = o.grad.data() + r * (da + db) + da;
            float* dst = ib.grad.data() + r * db;
            for (int64_t j = 0; j < db; ++j) dst[j] += src[j];
          }
        }
      },
      "ConcatLastDim");
}

Tensor SliceLastDim(const Tensor& x, int64_t begin, int64_t end) {
  const int64_t d = x.shape().back();
  CYQR_CHECK(begin >= 0 && begin < end && end <= d);
  const int64_t w = end - begin;
  const int64_t rows = x.NumElements() / d;
  std::vector<float> out(rows * w);
  const float* px = x.data();
  for (int64_t r = 0; r < rows; ++r) {
    std::memcpy(out.data() + r * w, px + r * d + begin, sizeof(float) * w);
  }
  return MakeOpResult(
      WithLastDim(x.shape(), w), std::move(out), {x}, kReadsNothing,
      [rows, d, w, begin](TensorImpl& o, TensorImpl& ix) {
        ix.EnsureGrad();
        for (int64_t r = 0; r < rows; ++r) {
          const float* src = o.grad.data() + r * w;
          float* dst = ix.grad.data() + r * d + begin;
          for (int64_t j = 0; j < w; ++j) dst[j] += src[j];
        }
      },
      "SliceLastDim");
}

Tensor EmbeddingGather(const Tensor& table, const std::vector<int32_t>& ids,
                       int64_t batch, int64_t seq) {
  CYQR_CHECK_EQ(table.shape().rank(), 2);
  CYQR_CHECK_EQ(static_cast<int64_t>(ids.size()), batch * seq);
  const int64_t v = table.shape().dim(0);
  const int64_t d = table.shape().dim(1);
  std::vector<float> out(batch * seq * d);
  const float* pt = table.data();
  for (size_t i = 0; i < ids.size(); ++i) {
    CYQR_CHECK(ids[i] >= 0 && ids[i] < v);
    std::memcpy(out.data() + i * d, pt + ids[i] * d, sizeof(float) * d);
  }
  // Only backward reads the ids again.
  std::vector<int32_t> kept_ids;
  if (OpRecords({table})) kept_ids = ids;
  return MakeOpResult(
      Shape{batch, seq, d}, std::move(out), {table}, kReadsNothing,
      [kept_ids = std::move(kept_ids), d](TensorImpl& o, TensorImpl& it) {
        it.EnsureGrad();
        for (size_t i = 0; i < kept_ids.size(); ++i) {
          const float* src = o.grad.data() + i * d;
          float* dst = it.grad.data() + kept_ids[i] * d;
          for (int64_t j = 0; j < d; ++j) dst[j] += src[j];
        }
      },
      "EmbeddingGather");
}

Tensor AddMask(const Tensor& scores, const std::vector<float>& mask) {
  CYQR_CHECK_EQ(static_cast<size_t>(scores.NumElements()), mask.size());
  const int64_t n = scores.NumElements();
  std::vector<float> out(n);
  const float* ps = scores.data();
  for (int64_t i = 0; i < n; ++i) out[i] = ps[i] + mask[i];
  return MakeOpResult(
      scores.shape(), std::move(out), {scores}, kReadsNothing,
      [](TensorImpl& o, TensorImpl& is) { AccumInto(is, o.grad); },
      "AddMask");
}

Tensor MaskedCrossEntropy(const Tensor& logits,
                          const std::vector<int32_t>& targets,
                          const std::vector<float>& mask,
                          float label_smoothing) {
  CYQR_CHECK_EQ(logits.shape().rank(), 3);
  CYQR_CHECK(label_smoothing >= 0.0f && label_smoothing < 1.0f);
  const int64_t b = logits.shape().dim(0);
  const int64_t t = logits.shape().dim(1);
  const int64_t v = logits.shape().dim(2);
  CYQR_CHECK_EQ(static_cast<int64_t>(targets.size()), b * t);
  CYQR_CHECK_EQ(static_cast<int64_t>(mask.size()), b * t);
  const float eps = label_smoothing;
  const float uniform = eps / static_cast<float>(v);

  std::vector<float> probs(logits.data(),
                           logits.data() + logits.NumElements());
  double total_nll = 0.0;
  double count = 0.0;
  const float* raw = logits.data();
  for (int64_t i = 0; i < b * t; ++i) {
    float* row = probs.data() + i * v;
    SoftmaxInPlace(row, v);
    if (mask[i] != 0.0f) {
      CYQR_CHECK(targets[i] >= 0 && targets[i] < v);
      // NLL against the smoothed target distribution:
      //   (1-e) * -log p[y]  +  e/V * sum_j -log p[j].
      const double log_py =
          std::log(std::max(row[targets[i]], 1e-12f));
      double nll = -(1.0 - eps) * log_py;
      if (eps > 0.0f) {
        const float* logit_row = raw + i * v;
        const float lse = LogSumExp(logit_row, static_cast<size_t>(v));
        double sum_logp = 0.0;
        for (int64_t j = 0; j < v; ++j) {
          sum_logp += static_cast<double>(logit_row[j]) - lse;
        }
        nll -= uniform * sum_logp;
      }
      total_nll += nll;
      count += 1.0;
    }
  }
  const float loss = count > 0 ? static_cast<float>(total_nll / count) : 0.0f;
  // Only backward reads the probabilities, targets and mask again.
  std::vector<int32_t> kept_targets;
  std::vector<float> kept_mask;
  if (OpRecords({logits})) {
    kept_targets = targets;
    kept_mask = mask;
  }
  return MakeOpResult(
      Shape{}, {loss}, {logits}, kReadsNothing,
      [probs = std::move(probs), kept_targets = std::move(kept_targets),
       kept_mask = std::move(kept_mask), b, t, v, count, eps,
       uniform](TensorImpl& o, TensorImpl& il) {
        if (count <= 0) return;
        il.EnsureGrad();
        const float g = o.grad[0] / static_cast<float>(count);
        for (int64_t i = 0; i < b * t; ++i) {
          if (kept_mask[i] == 0.0f) continue;
          const float* p = probs.data() + i * v;
          float* dst = il.grad.data() + i * v;
          const int32_t y = kept_targets[i];
          // d/dlogits = softmax - smoothed target distribution.
          for (int64_t j = 0; j < v; ++j) {
            dst[j] += g * (p[j] - uniform);
          }
          dst[y] -= g * (1.0f - eps);
        }
      },
      "MaskedCrossEntropy");
}

Tensor SequenceLogProb(const Tensor& logits,
                       const std::vector<int32_t>& targets,
                       const std::vector<float>& mask) {
  CYQR_CHECK_EQ(logits.shape().rank(), 3);
  const int64_t b = logits.shape().dim(0);
  const int64_t t = logits.shape().dim(1);
  const int64_t v = logits.shape().dim(2);
  CYQR_CHECK_EQ(static_cast<int64_t>(targets.size()), b * t);
  CYQR_CHECK_EQ(static_cast<int64_t>(mask.size()), b * t);

  std::vector<float> probs(logits.data(),
                           logits.data() + logits.NumElements());
  std::vector<float> out(b, 0.0f);
  for (int64_t bi = 0; bi < b; ++bi) {
    double acc = 0.0;
    for (int64_t ti = 0; ti < t; ++ti) {
      const int64_t i = bi * t + ti;
      float* row = probs.data() + i * v;
      SoftmaxInPlace(row, v);
      if (mask[i] != 0.0f) {
        CYQR_CHECK(targets[i] >= 0 && targets[i] < v);
        acc += std::log(std::max(row[targets[i]], 1e-12f));
      }
    }
    out[bi] = static_cast<float>(acc);
  }
  // Only backward reads the probabilities, targets and mask again.
  std::vector<int32_t> kept_targets;
  std::vector<float> kept_mask;
  if (OpRecords({logits})) {
    kept_targets = targets;
    kept_mask = mask;
  }
  return MakeOpResult(
      Shape{b}, std::move(out), {logits}, kReadsNothing,
      [probs = std::move(probs), kept_targets = std::move(kept_targets),
       kept_mask = std::move(kept_mask), b, t,
       v](TensorImpl& o, TensorImpl& il) {
        il.EnsureGrad();
        for (int64_t bi = 0; bi < b; ++bi) {
          const float g = o.grad[bi];
          if (g == 0.0f) continue;
          for (int64_t ti = 0; ti < t; ++ti) {
            const int64_t i = bi * t + ti;
            if (kept_mask[i] == 0.0f) continue;
            const float* p = probs.data() + i * v;
            float* dst = il.grad.data() + i * v;
            const int32_t y = kept_targets[i];
            // d logp[y] / d logits = onehot(y) - softmax.
            for (int64_t j = 0; j < v; ++j) dst[j] -= g * p[j];
            dst[y] += g;
          }
        }
      },
      "SequenceLogProb");
}

Tensor GroupLogSumExp(const Tensor& x, int64_t group) {
  CYQR_CHECK_EQ(x.shape().rank(), 1);
  const int64_t n = x.NumElements();
  CYQR_CHECK_GT(group, 0);
  CYQR_CHECK_EQ(n % group, 0);
  const int64_t groups = n / group;
  std::vector<float> out(groups);
  const float* px = x.data();
  for (int64_t g = 0; g < groups; ++g) {
    out[g] = LogSumExp(px + g * group, static_cast<size_t>(group));
  }
  return MakeOpResult(
      Shape{groups}, std::move(out), {x}, kReadsInputAndOutput,
      [groups, group](TensorImpl& o, TensorImpl& ix) {
        ix.EnsureGrad();
        for (int64_t g = 0; g < groups; ++g) {
          const float lse = o.data[g];
          const float dy = o.grad[g];
          for (int64_t j = 0; j < group; ++j) {
            const int64_t i = g * group + j;
            ix.grad[i] += dy * std::exp(ix.data[i] - lse);
          }
        }
      },
      "GroupLogSumExp");
}

Tensor AddRowBroadcast(const Tensor& a, const Tensor& bcast) {
  CYQR_CHECK_EQ(a.shape().rank(), 3);
  CYQR_CHECK_EQ(bcast.shape().rank(), 2);
  const int64_t b = a.shape().dim(0);
  const int64_t t = a.shape().dim(1);
  const int64_t d = a.shape().dim(2);
  CYQR_CHECK_EQ(bcast.shape().dim(0), b);
  CYQR_CHECK_EQ(bcast.shape().dim(1), d);
  std::vector<float> out(a.NumElements());
  const float* pa = a.data();
  const float* pb = bcast.data();
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t ti = 0; ti < t; ++ti) {
      const float* row = pb + bi * d;
      const float* src = pa + (bi * t + ti) * d;
      float* dst = out.data() + (bi * t + ti) * d;
      for (int64_t j = 0; j < d; ++j) dst[j] = src[j] + row[j];
    }
  }
  return MakeOpResult(
      a.shape(), std::move(out), {a, bcast}, kReadsNothing,
      [b, t, d](TensorImpl& o, TensorImpl& ia, TensorImpl& ib) {
        if (ia.requires_grad || ia.node) {
          AccumInto(ia, o.grad);
        }
        if (ib.requires_grad || ib.node) {
          ib.EnsureGrad();
          for (int64_t bi = 0; bi < b; ++bi) {
            float* dst = ib.grad.data() + bi * d;
            for (int64_t ti = 0; ti < t; ++ti) {
              const float* src = o.grad.data() + (bi * t + ti) * d;
              for (int64_t j = 0; j < d; ++j) dst[j] += src[j];
            }
          }
        }
      },
      "AddRowBroadcast");
}

Tensor StackRows(const std::vector<Tensor>& steps) {
  CYQR_CHECK(!steps.empty());
  const int64_t b = steps[0].shape().dim(0);
  const int64_t d = steps[0].shape().dim(1);
  const int64_t t = static_cast<int64_t>(steps.size());
  std::vector<float> out(b * t * d);
  for (int64_t ti = 0; ti < t; ++ti) {
    CYQR_CHECK(steps[ti].shape() == Shape({b, d}));
    const float* src = steps[ti].data();
    for (int64_t bi = 0; bi < b; ++bi) {
      std::memcpy(out.data() + (bi * t + ti) * d, src + bi * d,
                  sizeof(float) * d);
    }
  }
  return MakeOpResult(
      Shape{b, t, d}, std::move(out), steps, kReadsNothing,
      [b, t, d](TensorImpl& o, GradNode::InputSpan inputs) {
        for (int64_t ti = 0; ti < t; ++ti) {
          TensorImpl& in = *inputs[ti];
          if (!in.requires_grad && in.node == nullptr) continue;
          in.EnsureGrad();
          for (int64_t bi = 0; bi < b; ++bi) {
            const float* src = o.grad.data() + (bi * t + ti) * d;
            float* dst = in.grad.data() + bi * d;
            for (int64_t j = 0; j < d; ++j) dst[j] += src[j];
          }
        }
      },
      "StackRows");
}

Tensor SumAll(const Tensor& x) {
  const int64_t n = x.NumElements();
  double acc = 0.0;
  const float* px = x.data();
  for (int64_t i = 0; i < n; ++i) acc += px[i];
  return MakeOpResult(
      Shape{}, {static_cast<float>(acc)}, {x}, kReadsNothing,
      [n](TensorImpl& o, TensorImpl& ix) {
        ix.EnsureGrad();
        for (int64_t i = 0; i < n; ++i) ix.grad[i] += o.grad[0];
      },
      "SumAll");
}

Tensor MeanAll(const Tensor& x) {
  const int64_t n = x.NumElements();
  CYQR_CHECK_GT(n, 0);
  return Scale(SumAll(x), 1.0f / static_cast<float>(n));
}

}  // namespace cyqr
