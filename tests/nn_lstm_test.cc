// LSTM cell behavior: shapes, state propagation, initialization, and the
// ability to carry information across time; and the fused cell kernel
// (kernels::LstmCell / LstmHidden): accuracy of the AVX2 polynomial gates
// against libm, saturation and NaN, and bitwise row, batch and thread-count
// invariance.
#include "nn/lstm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "nn/kernels/simd.h"
#include "nn/optimizer.h"
#include "parallel/thread_pool.h"

namespace head::nn {
namespace {

TEST(LstmTest, ShapesAndInitialState) {
  Rng rng(1);
  LstmCell cell(3, 5, rng);
  EXPECT_EQ(cell.input_size(), 3);
  EXPECT_EQ(cell.hidden_size(), 5);
  const LstmState s0 = cell.InitialState(4);
  EXPECT_EQ(s0.h.value().rows(), 4);
  EXPECT_EQ(s0.h.value().cols(), 5);
  EXPECT_DOUBLE_EQ(s0.c.value().MaxAbs(), 0.0);
}

TEST(LstmTest, ForgetGateBiasStartsAtOne) {
  Rng rng(1);
  LstmCell cell(3, 4, rng);
  const Tensor& b = cell.Params()[2].value();
  // Gate order [i, f, g, o]: forget block = cols [4, 8).
  for (int c = 4; c < 8; ++c) EXPECT_DOUBLE_EQ(b.At(0, c), 1.0);
  for (int c = 0; c < 4; ++c) EXPECT_DOUBLE_EQ(b.At(0, c), 0.0);
}

TEST(LstmTest, OutputBounded) {
  Rng rng(2);
  LstmCell cell(2, 3, rng);
  LstmState s = cell.InitialState(1);
  for (int k = 0; k < 10; ++k) {
    Tensor x(1, 2, {5.0 * k, -3.0 * k});
    s = cell.Forward(Var::Constant(x), s);
    // h = o ⊙ tanh(c) ∈ (−1, 1).
    EXPECT_LT(s.h.value().MaxAbs(), 1.0);
  }
}

TEST(LstmTest, StatePersistsAcrossSteps) {
  Rng rng(3);
  LstmCell cell(1, 4, rng);
  // Two sequences identical except for the FIRST input; final hidden states
  // must differ (memory) even after several identical steps.
  auto run = [&](double first) {
    LstmState s = cell.InitialState(1);
    s = cell.Forward(Var::Constant(Tensor(1, 1, {first})), s);
    for (int k = 0; k < 4; ++k) {
      s = cell.Forward(Var::Constant(Tensor(1, 1, {0.1})), s);
    }
    return s.h.value();
  };
  EXPECT_NE(run(2.0), run(-2.0));
}

TEST(LstmTest, BatchRowsAreIndependent) {
  Rng rng(4);
  LstmCell cell(2, 3, rng);
  // Batched forward of [a; b] equals the stack of individual forwards.
  Tensor xa(1, 2, {0.5, -0.2});
  Tensor xb(1, 2, {-1.0, 0.8});
  Tensor xab(2, 2, {0.5, -0.2, -1.0, 0.8});
  LstmState sa = cell.Forward(Var::Constant(xa), cell.InitialState(1));
  LstmState sb = cell.Forward(Var::Constant(xb), cell.InitialState(1));
  LstmState sab = cell.Forward(Var::Constant(xab), cell.InitialState(2));
  for (int c = 0; c < 3; ++c) {
    EXPECT_NEAR(sab.h.value().At(0, c), sa.h.value().At(0, c), 1e-12);
    EXPECT_NEAR(sab.h.value().At(1, c), sb.h.value().At(0, c), 1e-12);
  }
}

TEST(LstmTest, LearnsToRememberSign) {
  // Classic memory task: output the sign of the first input after a fixed
  // number of noise steps.
  Rng rng(5);
  LstmCell cell(1, 8, rng);
  Linear head(8, 1, rng);
  std::vector<Var> params = cell.Params();
  for (const Var& p : head.Params()) params.push_back(p);
  Adam opt(params, 0.02);

  Rng data_rng(6);
  double final_loss = 1e9;
  for (int iter = 0; iter < 300; ++iter) {
    const double sign = data_rng.Bernoulli(0.5) ? 1.0 : -1.0;
    LstmState s = cell.InitialState(1);
    s = cell.Forward(Var::Constant(Tensor(1, 1, {sign})), s);
    for (int k = 0; k < 5; ++k) {
      s = cell.Forward(
          Var::Constant(Tensor(1, 1, {data_rng.Uniform(-0.1, 0.1)})), s);
    }
    Var loss = MseLoss(head.Forward(s.h),
                       Var::Constant(Tensor(1, 1, {sign})));
    final_loss = loss.value()[0];
    opt.ZeroGrad();
    Backward(loss);
    opt.Step();
  }
  EXPECT_LT(final_loss, 0.1);
}

// ---- The fused cell kernel ----

/// Restores the process-global ISA and fast_math state after each test.
class FusedCellTest : public ::testing::Test {
 protected:
  void SetUp() override {
    isa_ = kernels::ActiveIsa();
    fast_math_ = kernels::FastMathEnabled();
  }
  void TearDown() override {
    kernels::SetActiveIsa(isa_);
    kernels::SetFastMath(fast_math_);
  }
  /// AVX2 with fast_math on, or false when the machine has no AVX2+FMA.
  static bool UsePolynomialGates() {
    kernels::SetFastMath(true);
    return kernels::SetActiveIsa(kernels::Isa::kAvx2);
  }

 private:
  kernels::Isa isa_ = kernels::Isa::kScalar;
  bool fast_math_ = true;
};

double SigmoidLibm(double x) { return 1.0 / (1.0 + std::exp(-x)); }

/// Everything one LstmCell + LstmHidden call writes.
struct CellOut {
  std::vector<double> acts, c, tanh_c, h;
};

CellOut RunCell(int rows, int hidden, const std::vector<double>& gates,
                const std::vector<double>& c_prev) {
  const size_t n = static_cast<size_t>(rows) * hidden;
  CellOut out{std::vector<double>(4 * n), std::vector<double>(n),
              std::vector<double>(n), std::vector<double>(n)};
  kernels::LstmCell(rows, hidden, gates.data(), c_prev.data(),
                    out.acts.data(), out.c.data());
  kernels::LstmHidden(rows, hidden, out.acts.data(), out.c.data(),
                      out.tanh_c.data(), out.h.data());
  return out;
}

std::vector<double> UniformVec(size_t n, double lo, double hi, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.Uniform(lo, hi);
  return v;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// |got − want| ≤ tol, NaN exactly where libm gives NaN.
void ExpectClose(double got, double want, double tol, double x) {
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got)) << "x=" << x;
  } else {
    EXPECT_LE(std::abs(got - want), tol) << "x=" << x << " got " << got
                                         << " want " << want;
  }
}

TEST_F(FusedCellTest, PolynomialGatesWithin1e14OfLibm) {
  if (!UsePolynomialGates()) GTEST_SKIP() << "no AVX2+FMA on this machine";
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(17);
  std::vector<double> xs = UniformVec(100000, -50.0, 50.0, rng);
  for (double x : {0.0, -0.0, inf, -inf, nan, 1e300, -1e300, 709.5, -745.0,
                   1e-300, -1e-20}) {
    xs.push_back(x);
  }
  // One (rows × 4h) block per gate, each fed the whole sample set, at a
  // hidden size with a masked tail (h = 7).
  const int hidden = 7;
  const int rows = static_cast<int>((xs.size() + hidden - 1) / hidden);
  const size_t n = static_cast<size_t>(rows) * hidden;
  std::vector<double> gates(4 * n), c_prev(n);
  for (size_t e = 0; e < n; ++e) {
    const size_t r = e / hidden, j = e % hidden;
    const double x = xs[e % xs.size()];
    for (int blk = 0; blk < 4; ++blk) gates[r * 4 * hidden + blk * hidden + j] = x;
    c_prev[e] = xs[(e * 7919) % xs.size()];  // c (and so tanh c) sees them too
  }
  const CellOut out = RunCell(rows, hidden, gates, c_prev);
  for (size_t e = 0; e < n; ++e) {
    const size_t r = e / hidden, j = e % hidden;
    const double x = xs[e % xs.size()];
    const double* a = &out.acts[r * 4 * hidden];
    ExpectClose(a[j], SigmoidLibm(x), 1e-14, x);
    ExpectClose(a[hidden + j], SigmoidLibm(x), 1e-14, x);
    ExpectClose(a[2 * hidden + j], std::tanh(x), 1e-14, x);
    ExpectClose(a[3 * hidden + j], SigmoidLibm(x), 1e-14, x);
    ExpectClose(out.tanh_c[e], std::tanh(out.c[e]), 1e-14, out.c[e]);
  }
  // Saturation is exact, the sign of zero survives tanh, NaN propagates.
  const auto gate_of = [&](double x, double c_prev = 0.0) {
    std::vector<double> g(4 * 4, x), c(4, c_prev);
    return RunCell(1, 4, g, c);
  };
  for (double x : {inf, 1e300, 800.0}) {
    const CellOut o = gate_of(x);
    EXPECT_EQ(o.acts[0], 1.0) << x;        // σ
    EXPECT_EQ(o.acts[8], 1.0) << x;        // tanh
    const CellOut m = gate_of(-x);
    EXPECT_TRUE(SameBits(m.acts[0], 0.0)) << -x;
    EXPECT_EQ(m.acts[8], -1.0) << -x;
    // i = f = g = 1 at x, so c = c_prev + 1.
    EXPECT_EQ(gate_of(x, x).tanh_c[0], 1.0) << x;
    EXPECT_EQ(gate_of(x, -x).tanh_c[0], -1.0) << -x;
  }
  EXPECT_TRUE(SameBits(gate_of(-0.0).acts[8], -0.0));
  EXPECT_TRUE(SameBits(gate_of(0.0).acts[8], 0.0));
  EXPECT_EQ(gate_of(0.0).acts[0], 0.5);
  const CellOut n_out = gate_of(nan);
  for (double v : {n_out.acts[0], n_out.acts[8], n_out.c[0], n_out.h[0]}) {
    EXPECT_TRUE(std::isnan(v));
  }
}

TEST_F(FusedCellTest, ScalarGatesAreLibm) {
  // The scalar schedule is the unfused ops' arithmetic, bit for bit.
  kernels::SetActiveIsa(kernels::Isa::kScalar);
  Rng rng(18);
  const int rows = 3, hidden = 5;
  const std::vector<double> gates = UniformVec(4 * rows * hidden, -6, 6, rng);
  const std::vector<double> c_prev = UniformVec(rows * hidden, -2, 2, rng);
  const CellOut out = RunCell(rows, hidden, gates, c_prev);
  for (int r = 0; r < rows; ++r) {
    for (int j = 0; j < hidden; ++j) {
      const double* g = &gates[r * 4 * hidden];
      const int e = r * hidden + j;
      const double i = SigmoidLibm(g[j]), f = SigmoidLibm(g[hidden + j]);
      const double cell = std::tanh(g[2 * hidden + j]);
      const double o = SigmoidLibm(g[3 * hidden + j]);
      const double c = f * c_prev[e] + i * cell;
      EXPECT_TRUE(SameBits(out.c[e], c));
      EXPECT_TRUE(SameBits(out.h[e], o * std::tanh(c)));
    }
  }
}

TEST_F(FusedCellTest, RowBitsIndependentOfBatchAndPosition) {
  // A row's outputs must not depend on B, on where the row sits in the
  // batch, or on the masked tail (h = 5), on either backend.
  for (const bool avx2 : {false, true}) {
    if (avx2 && !UsePolynomialGates()) continue;
    if (!avx2) kernels::SetActiveIsa(kernels::Isa::kScalar);
    for (const int hidden : {64, 5}) {
      Rng rng(23 + hidden);
      const std::vector<double> row_g = UniformVec(4 * hidden, -8, 8, rng);
      const std::vector<double> row_c = UniformVec(hidden, -3, 3, rng);
      const CellOut alone = RunCell(1, hidden, row_g, row_c);
      for (const int batch : {1, 7, 32}) {
        const int at = batch / 2;
        std::vector<double> g = UniformVec(4 * batch * hidden, -8, 8, rng);
        std::vector<double> c = UniformVec(batch * hidden, -3, 3, rng);
        std::copy(row_g.begin(), row_g.end(), g.begin() + at * 4 * hidden);
        std::copy(row_c.begin(), row_c.end(), c.begin() + at * hidden);
        const CellOut out = RunCell(batch, hidden, g, c);
        for (int k = 0; k < 4 * hidden; ++k) {
          ASSERT_TRUE(SameBits(out.acts[at * 4 * hidden + k], alone.acts[k]))
              << "avx2=" << avx2 << " h=" << hidden << " B=" << batch;
        }
        for (int j = 0; j < hidden; ++j) {
          const int e = at * hidden + j;
          ASSERT_TRUE(SameBits(out.c[e], alone.c[j]));
          ASSERT_TRUE(SameBits(out.tanh_c[e], alone.tanh_c[j]));
          ASSERT_TRUE(SameBits(out.h[e], alone.h[j]))
              << "avx2=" << avx2 << " h=" << hidden << " B=" << batch;
        }
      }
    }
  }
}

TEST_F(FusedCellTest, ThreadCountInvariant) {
  // 384 × 64 is a training-step cell (B = 64): large enough that the
  // dispatch layer splits it across the pool.
  for (const bool avx2 : {false, true}) {
    if (avx2 && !UsePolynomialGates()) continue;
    if (!avx2) kernels::SetActiveIsa(kernels::Isa::kScalar);
    Rng rng(29);
    const int rows = 384, hidden = 64;
    const std::vector<double> g = UniformVec(4 * rows * hidden, -8, 8, rng);
    const std::vector<double> c = UniformVec(rows * hidden, -3, 3, rng);
    parallel::ThreadPool one(1), four(4);
    CellOut serial, threaded;
    {
      parallel::GlobalPoolOverride ov(&one);
      serial = RunCell(rows, hidden, g, c);
    }
    {
      parallel::GlobalPoolOverride ov(&four);
      threaded = RunCell(rows, hidden, g, c);
    }
    for (size_t k = 0; k < serial.acts.size(); ++k) {
      ASSERT_TRUE(SameBits(serial.acts[k], threaded.acts[k])) << k;
    }
    for (size_t k = 0; k < serial.h.size(); ++k) {
      ASSERT_TRUE(SameBits(serial.c[k], threaded.c[k])) << k;
      ASSERT_TRUE(SameBits(serial.h[k], threaded.h[k])) << k;
    }
  }
}

}  // namespace
}  // namespace head::nn
