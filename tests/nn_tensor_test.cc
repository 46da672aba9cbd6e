#include "nn/tensor.h"

#include <gtest/gtest.h>

namespace head::nn {
namespace {

TEST(TensorTest, ConstructionAndAccess) {
  Tensor t(2, 3, 1.5);
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.size(), 6);
  EXPECT_DOUBLE_EQ(t.At(1, 2), 1.5);
  t.At(1, 2) = -4.0;
  EXPECT_DOUBLE_EQ(t.At(1, 2), -4.0);
  EXPECT_DOUBLE_EQ(t[5], -4.0);  // row-major
}

#ifndef NDEBUG
// At() is defined inline in the header; its HEAD_DCHECK must still fire
// wherever DCHECKs are compiled in.
TEST(TensorDeathTest, OutOfRangeAtAborts) {
  Tensor t(2, 3);
  const Tensor& ct = t;
  EXPECT_DEATH((void)t.At(2, 0), "HEAD_CHECK failed");
  EXPECT_DEATH((void)t.At(0, 3), "HEAD_CHECK failed");
  EXPECT_DEATH((void)ct.At(-1, 0), "HEAD_CHECK failed");
  EXPECT_DEATH((void)ct.At(1, -1), "HEAD_CHECK failed");
}
#endif  // NDEBUG

TEST(TensorTest, EmptyTensor) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0);
  EXPECT_DOUBLE_EQ(t.MaxAbs(), 0.0);
}

TEST(TensorTest, MatMulKnownValues) {
  Tensor a(2, 2, {1, 2, 3, 4});
  Tensor b(2, 2, {5, 6, 7, 8});
  const Tensor c = MatMul(a, b);
  EXPECT_DOUBLE_EQ(c.At(0, 0), 19);
  EXPECT_DOUBLE_EQ(c.At(0, 1), 22);
  EXPECT_DOUBLE_EQ(c.At(1, 0), 43);
  EXPECT_DOUBLE_EQ(c.At(1, 1), 50);
}

TEST(TensorTest, MatMulTransposedVariantsAgree) {
  Rng rng(3);
  const Tensor a = Tensor::Uniform(3, 4, -1, 1, rng);
  const Tensor b = Tensor::Uniform(5, 4, -1, 1, rng);
  const Tensor direct = MatMul(a, Transpose(b));
  const Tensor fused = MatMulTransposeB(a, b);
  EXPECT_EQ(direct, fused);

  const Tensor c = Tensor::Uniform(3, 5, -1, 1, rng);
  const Tensor direct2 = MatMul(Transpose(a), c);
  const Tensor fused2 = MatMulTransposeA(a, c);
  EXPECT_EQ(direct2, fused2);
}

TEST(TensorTest, ElementwiseOps) {
  Tensor a(1, 3, {1, -2, 3});
  Tensor b(1, 3, {4, 5, -6});
  EXPECT_EQ(Add(a, b), Tensor(1, 3, {5, 3, -3}));
  EXPECT_EQ(Sub(a, b), Tensor(1, 3, {-3, -7, 9}));
  EXPECT_EQ(Mul(a, b), Tensor(1, 3, {4, -10, -18}));
  EXPECT_EQ(Scale(a, 2.0), Tensor(1, 3, {2, -4, 6}));
}

TEST(TensorTest, RowBroadcastAndSumRows) {
  Tensor a(2, 2, {1, 2, 3, 4});
  Tensor row(1, 2, {10, 20});
  EXPECT_EQ(AddRowBroadcast(a, row), Tensor(2, 2, {11, 22, 13, 24}));
  EXPECT_EQ(SumRows(a), Tensor(1, 2, {4, 6}));
}

TEST(TensorTest, NormAndMaxAbs) {
  Tensor a(1, 2, {3, -4});
  EXPECT_DOUBLE_EQ(a.Norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.MaxAbs(), 4.0);
}

TEST(TensorTest, XavierBounds) {
  Rng rng(1);
  const Tensor w = Tensor::XavierUniform(30, 50, rng);
  const double bound = std::sqrt(6.0 / 80.0);
  for (int i = 0; i < w.size(); ++i) {
    EXPECT_LT(std::fabs(w[i]), bound + 1e-12);
  }
}

TEST(TensorTest, AddScaledInPlace) {
  Tensor a(1, 2, {1, 2});
  Tensor b(1, 2, {10, 20});
  a.AddScaled(b, 0.5);
  EXPECT_EQ(a, Tensor(1, 2, {6, 12}));
}

}  // namespace
}  // namespace head::nn
