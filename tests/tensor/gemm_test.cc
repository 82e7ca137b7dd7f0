// Bit-exactness of MatMul's blocked GEMM kernel against the plain i-p-j
// loop it replaced: the kernel at every vector width this CPU supports
// (GemmAtWidth), and MatMul on the width the process picked — forward
// output and both gradients — must match the oracle byte for byte over a
// grid of shapes, for every transpose pair and for the rank-2, rank-3
// batched and rank-3 x shared rank-2 cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "core/rng.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace cyqr {
namespace {

/// The reference kernel: C(m x n) (+)= op(A) * op(B), one row of C at a
/// time, adding the k products of each element in p order. Physical
/// layouts as in MatMul: A is (k x m) when trans_a else (m x k); B is
/// (n x k) when trans_b else (k x n).
void ReferenceGemm(bool trans_a, bool trans_b, int64_t m, int64_t n,
                   int64_t k, const float* a, const float* b, float* c,
                   bool accumulate) {
  if (!accumulate) std::memset(c, 0, sizeof(float) * m * n);
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    for (int64_t p = 0; p < k; ++p) {
      const float aval = trans_a ? a[p * m + i] : a[i * k + p];
      if (aval == 0.0f) continue;
      if (!trans_b) {
        const float* brow = b + p * n;
        for (int64_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
      } else {
        for (int64_t j = 0; j < n; ++j) crow[j] += aval * b[j * k + p];
      }
    }
  }
}

enum class Layout { kRank2, kBatched, kSharedB };

constexpr int64_t kBatch = 2;

std::vector<float> RandomValues(int64_t count, float zero_fraction,
                                Rng& rng) {
  std::vector<float> v(static_cast<size_t>(count));
  for (float& x : v) {
    x = rng.NextFloat() < zero_fraction
            ? 0.0f
            : static_cast<float>(rng.NextGaussian());
  }
  return v;
}

bool BytesEqual(const float* got, const std::vector<float>& want) {
  return want.empty() ||
         std::memcmp(got, want.data(), sizeof(float) * want.size()) == 0;
}

/// Row counts: every m around the 4-row blocks, then a few past them.
std::vector<int64_t> GridMs() {
  return {1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 33};
}

/// Column counts: the row counts, every boundary of the 32-, 16- and 8-wide column
/// tiers, and a vocabulary-sized 399.
std::vector<int64_t> GridNs() {
  std::vector<int64_t> ns = GridMs();
  ns.insert(ns.end(), {15, 24, 31, 32, 47, 48, 64, 399});
  return ns;
}

/// Contraction lengths: the column counts and an empty contraction, where
/// C is zero or its prior value.
std::vector<int64_t> GridKs() {
  std::vector<int64_t> ks = GridNs();
  ks.push_back(0);
  return ks;
}

std::string Where(int64_t m, int64_t n, int64_t k) {
  return "m=" + std::to_string(m) + " n=" + std::to_string(n) +
         " k=" + std::to_string(k);
}

class GemmWidthTest
    : public ::testing::TestWithParam<std::tuple<int, bool, bool>> {};

TEST_P(GemmWidthTest, KernelMatchesReferenceBitForBit) {
  const auto [width, trans_a, trans_b] = GetParam();
  const std::vector<int>& widths = GemmWidths();
  if (std::find(widths.begin(), widths.end(), width) == widths.end()) {
    GTEST_SKIP() << "this CPU cannot run the GEMM at width " << width;
  }
  Rng rng(23);
  for (const int64_t m : GridMs()) {
    for (const int64_t n : GridNs()) {
      for (const int64_t k : GridKs()) {
        const std::vector<float> a = RandomValues(m * k, 0.25f, rng);
        const std::vector<float> b = RandomValues(k * n, 0.0f, rng);
        const std::vector<float> prior = RandomValues(m * n, 0.0f, rng);
        for (const bool accumulate : {false, true}) {
          std::vector<float> got = prior;
          std::vector<float> want = prior;
          GemmAtWidth(width, trans_a, trans_b, m, n, k, a.data(), b.data(),
                      got.data(), accumulate);
          ReferenceGemm(trans_a, trans_b, m, n, k, a.data(), b.data(),
                        want.data(), accumulate);
          ASSERT_TRUE(BytesEqual(got.data(), want))
              << Where(m, n, k) << " accumulate=" << accumulate;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWidths, GemmWidthTest,
    ::testing::Combine(::testing::Values(4, 8, 16), ::testing::Bool(),
                       ::testing::Bool()),
    [](const auto& info) {
      std::string name = "W" + std::to_string(std::get<0>(info.param));
      name += std::get<1>(info.param) ? "_TransA" : "_A";
      name += std::get<2>(info.param) ? "_TransB" : "_B";
      return name;
    });

class GemmOracleTest
    : public ::testing::TestWithParam<std::tuple<Layout, bool, bool>> {};

TEST_P(GemmOracleTest, MatMulMatchesReferenceBitForBit) {
  const auto [layout, trans_a, trans_b] = GetParam();
  const std::vector<int64_t> ns = GridNs();
  const std::vector<int64_t> ks = GridKs();
  Rng rng(17);
  int64_t cases = 0;
  for (const int64_t m : GridMs()) {
    for (const int64_t n : ns) {
      for (const int64_t k : ks) {
        const bool a_rank3 = layout != Layout::kRank2;
        const bool b_rank3 = layout == Layout::kBatched;
        const int64_t batch = a_rank3 ? kBatch : 1;
        const int64_t b_batch = b_rank3 ? kBatch : 1;
        const int64_t a_size = m * k;
        const int64_t b_size = k * n;
        const int64_t c_size = m * n;
        const int64_t a_rows = trans_a ? k : m;
        const int64_t a_cols = trans_a ? m : k;
        const int64_t b_rows = trans_b ? n : k;
        const int64_t b_cols = trans_b ? k : n;
        Tensor a = Tensor::FromData(a_rank3 ? Shape{batch, a_rows, a_cols}
                                            : Shape{a_rows, a_cols},
                                    RandomValues(batch * a_size, 0.25f, rng));
        Tensor b = Tensor::FromData(b_rank3 ? Shape{b_batch, b_rows, b_cols}
                                            : Shape{b_rows, b_cols},
                                    RandomValues(b_batch * b_size, 0.0f, rng));
        const std::vector<float> upstream =
            RandomValues(batch * c_size, 0.0f, rng);
        const std::vector<float> a_prior =
            RandomValues(batch * a_size, 0.0f, rng);
        const std::vector<float> b_prior =
            RandomValues(b_batch * b_size, 0.0f, rng);
        a.set_requires_grad(true);
        b.set_requires_grad(true);
        std::copy(a_prior.begin(), a_prior.end(), a.mutable_grad());
        std::copy(b_prior.begin(), b_prior.end(), b.mutable_grad());

        Tensor c = MatMul(a, b, trans_a, trans_b);
        // d(sum(C * G))/dC = 1 * G exactly, so dC is `upstream`.
        Tensor g = Tensor::FromData(c.shape(), upstream);
        SumAll(Mul(c, g)).Backward();

        std::vector<float> want_c(batch * c_size);
        std::vector<float> want_da = a_prior;
        std::vector<float> want_db = b_prior;
        const int64_t b_stride = b_batch == 1 ? 0 : b_size;
        for (int64_t bi = 0; bi < batch; ++bi) {
          const float* pa = a.data() + bi * a_size;
          const float* pb = b.data() + bi * b_stride;
          const float* dc = upstream.data() + bi * c_size;
          float* da = want_da.data() + bi * a_size;
          float* db = want_db.data() + bi * b_stride;
          ReferenceGemm(trans_a, trans_b, m, n, k, pa, pb,
                        want_c.data() + bi * c_size, false);
          if (!trans_a) {
            ReferenceGemm(false, !trans_b, m, k, n, dc, pb, da, true);
          } else {
            ReferenceGemm(trans_b, true, k, m, n, pb, dc, da, true);
          }
          if (!trans_b) {
            ReferenceGemm(!trans_a, false, k, n, m, pa, dc, db, true);
          } else {
            ReferenceGemm(true, trans_a, n, k, m, dc, pa, db, true);
          }
        }
        const std::string where = Where(m, n, k);
        ASSERT_TRUE(BytesEqual(c.data(), want_c)) << "C " << where;
        ASSERT_TRUE(BytesEqual(a.grad(), want_da)) << "dA " << where;
        ASSERT_TRUE(BytesEqual(b.grad(), want_db)) << "dB " << where;
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 12 * 20 * 21);
}

INSTANTIATE_TEST_SUITE_P(
    AllLayouts, GemmOracleTest,
    ::testing::Combine(::testing::Values(Layout::kRank2, Layout::kBatched,
                                         Layout::kSharedB),
                       ::testing::Bool(), ::testing::Bool()),
    [](const auto& info) {
      const Layout layout = std::get<0>(info.param);
      std::string name = layout == Layout::kRank2     ? "Rank2"
                         : layout == Layout::kBatched ? "Batched"
                                                      : "SharedB";
      name += std::get<1>(info.param) ? "_TransA" : "_A";
      name += std::get<2>(info.param) ? "_TransB" : "_B";
      return name;
    });

}  // namespace
}  // namespace cyqr
