// Forward and finite-difference backward checks for the batched autograd
// ops behind the vectorized training paths (GatherRows, SelectColumnPerRow,
// RowwiseMax, SumRows, ScaleRows, SumRowGroups, GroupPairSum,
// MatMulTransposeB), plus the grad-mode switch
// (NoGradGuard) that turns forward passes into pure inference.
#include <cmath>
#include <functional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nn/autograd.h"

namespace head::nn {
namespace {

// Numerically verifies d(loss)/d(param) for a scalar-valued builder that
// reconstructs the graph from the current parameter values on every call.
void CheckGradient(Var param, const std::function<Var()>& build_loss,
                   double eps = 1e-6, double tol = 1e-5) {
  param.ZeroGrad();
  Var loss = build_loss();
  Backward(loss);
  const Tensor analytic = param.grad();
  Tensor& value = param.mutable_value();
  for (int i = 0; i < value.size(); ++i) {
    const double saved = value[i];
    value[i] = saved + eps;
    const double up = build_loss().value()[0];
    value[i] = saved - eps;
    const double down = build_loss().value()[0];
    value[i] = saved;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(analytic[i], numeric, tol * std::max(1.0, std::fabs(numeric)))
        << "param element " << i;
  }
}

Tensor Arange(int rows, int cols, double scale = 0.1, double shift = -0.35) {
  Tensor t(rows, cols);
  for (int i = 0; i < t.size(); ++i) t[i] = scale * i + shift;
  return t;
}

// Weighs each output element differently so gradient bugs that only show up
// off the all-ones cotangent are caught.
Var WeightedSum(const Var& v) {
  return Sum(Mul(v, Var::Constant(
                        Arange(v.value().rows(), v.value().cols(), 0.37, 0.2))));
}

TEST(BatchedOpsTest, GatherRowsForward) {
  const Var a = Var::Constant(Arange(4, 3));
  const Var g = GatherRows(a, {2, 0, 2, 3});
  ASSERT_EQ(g.value().rows(), 4);
  ASSERT_EQ(g.value().cols(), 3);
  for (int c = 0; c < 3; ++c) {
    EXPECT_DOUBLE_EQ(g.value().At(0, c), a.value().At(2, c));
    EXPECT_DOUBLE_EQ(g.value().At(1, c), a.value().At(0, c));
    EXPECT_DOUBLE_EQ(g.value().At(2, c), a.value().At(2, c));
    EXPECT_DOUBLE_EQ(g.value().At(3, c), a.value().At(3, c));
  }
}

TEST(BatchedOpsTest, GatherRowsGradientWithRepeats) {
  Var a = Var::Param(Arange(4, 3));
  // Row 2 is gathered twice — its gradient must scatter-add both copies.
  CheckGradient(a, [&] { return WeightedSum(GatherRows(a, {2, 0, 2, 1})); });
}

TEST(BatchedOpsTest, SelectColumnPerRowForward) {
  const Var a = Var::Constant(Arange(3, 4));
  const Var s = SelectColumnPerRow(a, {1, 3, 0});
  ASSERT_EQ(s.value().rows(), 3);
  ASSERT_EQ(s.value().cols(), 1);
  EXPECT_DOUBLE_EQ(s.value().At(0, 0), a.value().At(0, 1));
  EXPECT_DOUBLE_EQ(s.value().At(1, 0), a.value().At(1, 3));
  EXPECT_DOUBLE_EQ(s.value().At(2, 0), a.value().At(2, 0));
}

TEST(BatchedOpsTest, SelectColumnPerRowGradient) {
  Var a = Var::Param(Arange(3, 4));
  CheckGradient(a,
                [&] { return WeightedSum(SelectColumnPerRow(a, {1, 3, 0})); });
}

TEST(BatchedOpsTest, RowwiseMaxForward) {
  Tensor t(2, 3);
  t.At(0, 0) = -1.0, t.At(0, 1) = 5.0, t.At(0, 2) = 2.0;
  t.At(1, 0) = 7.0, t.At(1, 1) = -3.0, t.At(1, 2) = 4.0;
  const Var m = RowwiseMax(Var::Constant(t));
  ASSERT_EQ(m.value().rows(), 2);
  ASSERT_EQ(m.value().cols(), 1);
  EXPECT_DOUBLE_EQ(m.value().At(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(m.value().At(1, 0), 7.0);
}

TEST(BatchedOpsTest, RowwiseMaxGradient) {
  // Distinct entries (no ties) so the subgradient is unique and the finite
  // difference stays on one side of the max.
  Var a = Var::Param(Arange(3, 4, 0.31, -0.7));
  CheckGradient(a, [&] { return WeightedSum(RowwiseMax(a)); });
}

TEST(BatchedOpsTest, SumRowsForwardAndGradient) {
  Var a = Var::Param(Arange(3, 2));
  const Var s = SumRows(a);
  ASSERT_EQ(s.value().rows(), 1);
  ASSERT_EQ(s.value().cols(), 2);
  EXPECT_NEAR(s.value().At(0, 0),
              a.value().At(0, 0) + a.value().At(1, 0) + a.value().At(2, 0),
              1e-12);
  CheckGradient(a, [&] { return WeightedSum(SumRows(a)); });
}

TEST(BatchedOpsTest, ScaleRowsForward) {
  const Var a = Var::Constant(Arange(2, 3));
  Tensor s(2, 1);
  s.At(0, 0) = 2.0;
  s.At(1, 0) = -0.5;
  const Var r = ScaleRows(a, Var::Constant(s));
  for (int c = 0; c < 3; ++c) {
    EXPECT_DOUBLE_EQ(r.value().At(0, c), 2.0 * a.value().At(0, c));
    EXPECT_DOUBLE_EQ(r.value().At(1, c), -0.5 * a.value().At(1, c));
  }
}

TEST(BatchedOpsTest, ScaleRowsGradientBothInputs) {
  Var a = Var::Param(Arange(3, 2));
  Var s = Var::Param(Arange(3, 1, 0.4, 0.3));
  auto loss = [&] { return WeightedSum(ScaleRows(a, s)); };
  CheckGradient(a, loss);
  a.ZeroGrad();
  CheckGradient(s, loss);
}

TEST(BatchedOpsTest, SumRowGroupsForwardAndGradient) {
  Var a = Var::Param(Arange(6, 2));
  const Var g = SumRowGroups(a, 3);
  ASSERT_EQ(g.value().rows(), 2);
  ASSERT_EQ(g.value().cols(), 2);
  EXPECT_NEAR(g.value().At(0, 0),
              a.value().At(0, 0) + a.value().At(1, 0) + a.value().At(2, 0),
              1e-12);
  EXPECT_NEAR(g.value().At(1, 1),
              a.value().At(3, 1) + a.value().At(4, 1) + a.value().At(5, 1),
              1e-12);
  CheckGradient(a, [&] { return WeightedSum(SumRowGroups(a, 3)); });
}

TEST(BatchedOpsTest, GroupPairSumForwardAndGradient) {
  const Var s = Var::Constant(Arange(6, 2));
  const Var out = GroupPairSum(s, 3);  // two groups of three rows
  ASSERT_EQ(out.value().rows(), 2);
  ASSERT_EQ(out.value().cols(), 3);
  for (int g = 0; g < 2; ++g) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(out.value().At(g, j),
                       s.value().At(3 * g, 0) + s.value().At(3 * g + j, 1));
    }
  }
  Var p = Var::Param(Arange(6, 2));
  CheckGradient(p, [&] { return WeightedSum(GroupPairSum(p, 3)); });
}

TEST(BatchedOpsTest, MatMulTransposeBForwardAndGradient) {
  Var a = Var::Param(Arange(3, 4));
  Var b = Var::Param(Arange(2, 4, 0.13, -0.5));  // stored (n×k)
  const Tensor want = MatMul(a.value(), Transpose(b.value()));
  const Var out = MatMulTransposeB(a, b);
  ASSERT_EQ(out.value().rows(), 3);
  ASSERT_EQ(out.value().cols(), 2);
  for (int i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(out.value()[i], want[i], 1e-12);
  }
  CheckGradient(a, [&] { return WeightedSum(MatMulTransposeB(a, b)); });
  CheckGradient(b, [&] { return WeightedSum(MatMulTransposeB(a, b)); });
}

TEST(BatchedOpsTest, AffineMatchesMatMulPlusBias) {
  const Var x = Var::Constant(Arange(4, 3));
  const Var w = Var::Constant(Arange(3, 5, 0.23, -0.4));
  const Var b = Var::Constant(Arange(1, 5, 0.11, 0.05));
  const Var fused = Affine(x, w, b);
  const Var composed = AddRowBroadcast(MatMul(x, w), b);
  ASSERT_EQ(fused.value().rows(), 4);
  ASSERT_EQ(fused.value().cols(), 5);
  for (int i = 0; i < fused.value().size(); ++i) {
    EXPECT_NEAR(fused.value()[i], composed.value()[i], 1e-12);
  }
}

TEST(BatchedOpsTest, AffineGradientAllInputs) {
  Var x = Var::Param(Arange(4, 3));
  Var w = Var::Param(Arange(3, 5, 0.23, -0.4));
  Var b = Var::Param(Arange(1, 5, 0.11, 0.05));
  auto loss = [&] { return WeightedSum(Affine(x, w, b)); };
  CheckGradient(x, loss);
  x.ZeroGrad();
  CheckGradient(w, loss);
  w.ZeroGrad();
  CheckGradient(b, loss);
}

TEST(BatchedOpsTest, AffineColumnOutputGradient) {
  // n == 1 takes the dot-product fast path; check it separately.
  Var x = Var::Param(Arange(5, 3));
  Var w = Var::Param(Arange(3, 1, 0.4, -0.2));
  Var b = Var::Param(Arange(1, 1, 0.0, 0.7));
  auto loss = [&] { return WeightedSum(Affine(x, w, b)); };
  CheckGradient(x, loss);
  x.ZeroGrad();
  CheckGradient(w, loss);
  w.ZeroGrad();
  CheckGradient(b, loss);
}

TEST(GradModeTest, NoGradGuardDisablesRecording) {
  EXPECT_TRUE(GradEnabled());
  Var a = Var::Param(Arange(2, 3));
  Var b = Var::Param(Arange(3, 2));
  {
    const NoGradGuard guard;
    EXPECT_FALSE(GradEnabled());
    const Var out = Sum(MatMul(a, b));
    // Values are still computed…
    EXPECT_EQ(out.value().rows(), 1);
    // …but the result is detached: no backward graph, no grad requirement.
    EXPECT_FALSE(out.requires_grad());
  }
  EXPECT_TRUE(GradEnabled());
  // Nothing was recorded, so the params never received gradients.
  for (int i = 0; i < a.grad().size(); ++i) EXPECT_EQ(a.grad()[i], 0.0);
  for (int i = 0; i < b.grad().size(); ++i) EXPECT_EQ(b.grad()[i], 0.0);
}

TEST(GradModeTest, GuardNestsAndRestores) {
  const NoGradGuard outer;
  EXPECT_FALSE(GradEnabled());
  {
    const NoGradGuard inner;
    EXPECT_FALSE(GradEnabled());
  }
  // Inner guard must restore the *outer* disabled state, not re-enable.
  EXPECT_FALSE(GradEnabled());
}

TEST(GradModeTest, GradModeIsThreadLocal) {
  const NoGradGuard guard;  // disable on this thread only
  ASSERT_FALSE(GradEnabled());
  bool other_thread_enabled = false;
  bool other_thread_built_graph = false;
  std::thread worker([&] {
    other_thread_enabled = GradEnabled();
    Var a = Var::Param(Arange(2, 2));
    Var loss = Sum(Mul(a, a));
    Backward(loss);
    // d(Σa²)/da = 2a, nonzero for the Arange values used here.
    other_thread_built_graph = a.grad().size() == a.value().size() &&
                               a.grad()[0] == 2.0 * a.value()[0];
  });
  worker.join();
  EXPECT_TRUE(other_thread_enabled);
  EXPECT_TRUE(other_thread_built_graph);
  EXPECT_FALSE(GradEnabled());
}

TEST(GradModeTest, NoGradValuesMatchRecordedValues) {
  Var a = Var::Param(Arange(3, 3));
  Var b = Var::Param(Arange(3, 3, 0.2, -0.5));
  const Var recorded = MatMul(Sigmoid(a), Tanh(b));
  Tensor detached;
  {
    const NoGradGuard guard;
    detached = MatMul(Sigmoid(a), Tanh(b)).value();
  }
  for (int i = 0; i < detached.size(); ++i) {
    EXPECT_DOUBLE_EQ(detached[i], recorded.value()[i]);
  }
}

}  // namespace
}  // namespace head::nn
