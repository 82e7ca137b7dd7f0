#include "nn/layers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "tensor/ops.h"

namespace cyqr {
namespace {

TEST(LinearTest, OutputShape2DAnd3D) {
  Rng rng(1);
  Linear lin(4, 6, rng);
  Tensor x2 = Tensor::Zeros(Shape{3, 4});
  EXPECT_EQ(lin.Forward(x2).shape(), Shape({3, 6}));
  Tensor x3 = Tensor::Zeros(Shape{2, 3, 4});
  EXPECT_EQ(lin.Forward(x3).shape(), Shape({2, 3, 6}));
}

TEST(LinearTest, ZeroInputGivesBias) {
  Rng rng(2);
  Linear lin(3, 2, rng);
  // Freshly initialized bias is zero, so output of zero input is zero.
  Tensor y = lin.Forward(Tensor::Zeros(Shape{1, 3}));
  EXPECT_FLOAT_EQ(y.data()[0], 0.0f);
  EXPECT_FLOAT_EQ(y.data()[1], 0.0f);
}

TEST(LinearTest, NoBiasVariantHasOneParameter) {
  Rng rng(3);
  Linear lin(3, 2, rng, /*bias=*/false);
  EXPECT_EQ(lin.Parameters().size(), 1u);
}

TEST(EmbeddingTest, ShapeAndGradientFlow) {
  Rng rng(4);
  Embedding emb(10, 4, rng);
  std::vector<int32_t> ids = {1, 3, 3, 7};
  Tensor e = emb.Forward(ids, 2, 2);
  EXPECT_EQ(e.shape(), Shape({2, 2, 4}));
  SumAll(Mul(e, e)).Backward();
  const Tensor table = emb.table();
  ASSERT_NE(table.grad(), nullptr);
  // Row 3 was used twice, row 0 never.
  double row3 = 0.0;
  double row0 = 0.0;
  for (int j = 0; j < 4; ++j) {
    row3 += std::fabs(table.grad()[3 * 4 + j]);
    row0 += std::fabs(table.grad()[0 * 4 + j]);
  }
  EXPECT_GT(row3, 0.0);
  EXPECT_EQ(row0, 0.0);
}

TEST(LayerNormLayerTest, OutputNormalized) {
  Rng rng(5);
  LayerNorm ln(6);
  Tensor x = Tensor::Randn(Shape{2, 6}, rng, 4.0f);
  Tensor y = ln.Forward(x);
  for (int r = 0; r < 2; ++r) {
    double mu = 0.0;
    for (int j = 0; j < 6; ++j) mu += y.data()[r * 6 + j];
    EXPECT_NEAR(mu / 6, 0.0, 1e-4);
  }
}

TEST(DropoutLayerTest, RespectsTrainingFlag) {
  Rng rng(6);
  Dropout drop(0.9f, rng);
  Tensor x = Tensor::Full(Shape{100}, 1.0f);
  drop.SetTraining(false);
  Tensor y_eval = drop.Forward(x);
  for (int64_t i = 0; i < 100; ++i) EXPECT_FLOAT_EQ(y_eval.data()[i], 1.0f);
  drop.SetTraining(true);
  Tensor y_train = drop.Forward(x);
  int zeros = 0;
  for (int64_t i = 0; i < 100; ++i) {
    if (y_train.data()[i] == 0.0f) ++zeros;
  }
  EXPECT_GT(zeros, 50);
}

TEST(PositionalEncodingTest, DistinctPositionsAndBounded) {
  Tensor x = Tensor::Zeros(Shape{1, 4, 8});
  Tensor y = AddPositionalEncoding(x);
  // Position 0: sin(0)=0, cos(0)=1 alternating.
  EXPECT_NEAR(y.data()[0], 0.0f, 1e-6f);
  EXPECT_NEAR(y.data()[1], 1.0f, 1e-6f);
  // All values within [-1, 1].
  for (int64_t i = 0; i < y.NumElements(); ++i) {
    EXPECT_LE(std::fabs(y.data()[i]), 1.0f + 1e-6f);
  }
  // Different positions produce different encodings.
  bool differs = false;
  for (int j = 0; j < 8; ++j) {
    if (std::fabs(y.data()[0 * 8 + j] - y.data()[1 * 8 + j]) > 1e-4f) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

/// The sinusoidal value of (pos, j) at width d, computed directly.
float DirectPositionalValue(int64_t pos, int64_t j, int64_t d) {
  const double angle =
      static_cast<double>(pos) /
      std::pow(10000.0, 2.0 * (j / 2) / static_cast<double>(d));
  return static_cast<float>((j % 2 == 0) ? std::sin(angle) : std::cos(angle));
}

TEST(PositionalEncodingTest, CachedRowsMatchDirectFormulaBitForBit) {
  for (const int64_t d : {8, 32, 33}) {
    // Descending offsets first: the first call grows the table to its full
    // length, later calls read rows computed earlier.
    for (int64_t offset = 63; offset >= 0; --offset) {
      const Tensor y =
          AddPositionalEncoding(Tensor::Zeros(Shape{1, 1, d}), offset);
      for (int64_t j = 0; j < d; ++j) {
        const float want = DirectPositionalValue(offset, j, d);
        EXPECT_EQ(std::memcmp(&y.data()[j], &want, sizeof(float)), 0)
            << "d=" << d << " offset=" << offset << " j=" << j;
      }
    }
    // A batch of whole sequences reads the same rows for every element.
    const Tensor y = AddPositionalEncoding(Tensor::Zeros(Shape{2, 64, d}));
    for (int64_t bi = 0; bi < 2; ++bi) {
      for (int64_t pos = 0; pos < 64; ++pos) {
        for (int64_t j = 0; j < d; ++j) {
          const float want = DirectPositionalValue(pos, j, d);
          EXPECT_EQ(std::memcmp(&y.data()[(bi * 64 + pos) * d + j], &want,
                                sizeof(float)),
                    0)
              << "d=" << d << " pos=" << pos << " j=" << j;
        }
      }
    }
  }
}

TEST(PositionalEncodingTest, OffsetMatchesShiftedPosition) {
  Tensor a = AddPositionalEncoding(Tensor::Zeros(Shape{1, 4, 8}), 0);
  Tensor b = AddPositionalEncoding(Tensor::Zeros(Shape{1, 1, 8}), 2);
  for (int j = 0; j < 8; ++j) {
    EXPECT_NEAR(b.data()[j], a.data()[2 * 8 + j], 1e-6f);
  }
}

}  // namespace
}  // namespace cyqr
