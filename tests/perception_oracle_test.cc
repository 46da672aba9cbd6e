// Oracles for LST-GAT's cheap inference path. The unfused LSTM cell
// (4 SliceCols, 3 Sigmoid, 2 Tanh, 3 Mul, 1 Add per step) and the unfolded
// attention (φ1 embedding, target gather, 128-wide concat, score GEMM, φ3
// before the weighted sum) live here, built from the generic ops and the
// model's own parameters, as the reference the fused and folded code is
// held to:
//   * the fused cell with fast_math off is bitwise the unfused cell, forward
//     and backward;
//   * the folded LST-GAT is within 1e-9 of the unfolded one, attention on
//     and off, and so are its attention weights;
//   * finite differences agree with the fused cell's and the folded
//     model's gradients.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "nn/autograd.h"
#include "nn/kernels/simd.h"
#include "nn/lstm.h"
#include "perception/lst_gat.h"
#include "perception/phantom.h"
#include "perception/st_graph.h"

namespace head::perception {
namespace {

namespace kernels = nn::kernels;

// ---- The oracles ----

/// One LSTM step as the unfused composition: gates = b + x·W_ih + h·W_hh in
/// [i f g o] order, c' = σ(f)⊙c + σ(i)⊙tanh(g), h' = σ(o)⊙tanh(c').
nn::LstmState OracleLstmStep(const nn::Var& x, const nn::LstmState& s,
                             const nn::Var& w_ih, const nn::Var& w_hh,
                             const nn::Var& b) {
  const nn::Var gates = nn::DualAffine(x, w_ih, s.h, w_hh, b);
  const int h = s.h.value().cols();
  const nn::Var i = nn::Sigmoid(nn::SliceCols(gates, 0, h));
  const nn::Var f = nn::Sigmoid(nn::SliceCols(gates, h, 2 * h));
  const nn::Var g = nn::Tanh(nn::SliceCols(gates, 2 * h, 3 * h));
  const nn::Var o = nn::Sigmoid(nn::SliceCols(gates, 3 * h, 4 * h));
  const nn::Var c_new = nn::Add(nn::Mul(f, s.c), nn::Mul(i, g));
  return nn::LstmState{nn::Mul(o, nn::Tanh(c_new)), c_new};
}

/// Every sample's 42 step-k nodes stacked into one (B·42 × 4) constant.
nn::Var StackStep(const std::vector<const StGraph*>& graphs, int k) {
  nn::Tensor m(static_cast<int>(graphs.size()) * kNumAreas * kNodesPerTarget,
               kFeatureDim);
  int row = 0;
  for (const StGraph* g : graphs) {
    for (int i = 0; i < kNumAreas; ++i) {
      for (int n = 0; n < kNodesPerTarget; ++n, ++row) {
        for (int f = 0; f < kFeatureDim; ++f) {
          m.At(row, f) = g->steps[k].feat[i][n][f];
        }
      }
    }
  }
  return nn::Var::Constant(std::move(m));
}

/// Eq. (10) unfolded: e = m·φ1, score_n = LeakyReLU(φ2ᵀ[e_target ‖ e_n]),
/// α = softmax over each 7-node group. (groups × 7).
nn::Var OracleAttention(const LstGat& model, const nn::Var& m, int groups) {
  if (!model.config().use_attention) {
    return nn::Var::Constant(
        nn::Tensor::Full(groups, kNodesPerTarget, 1.0 / kNodesPerTarget));
  }
  const std::vector<nn::Var> p = model.Params();
  const nn::Var h_embed = nn::MatMul(m, p[0]);
  std::vector<int> tgt_idx(groups * kNodesPerTarget);
  for (int g = 0; g < groups; ++g) {
    for (int n = 0; n < kNodesPerTarget; ++n) {
      tgt_idx[g * kNodesPerTarget + n] = g * kNodesPerTarget;
    }
  }
  const nn::Var concat =
      nn::ConcatCols({nn::GatherRows(h_embed, std::move(tgt_idx)), h_embed});
  const nn::Var scores = nn::LeakyRelu(nn::MatMul(concat, p[1]),
                                       model.config().leaky_slope);
  return nn::SoftmaxRows(nn::Reshape(scores, groups, kNodesPerTarget));
}

/// ForwardScaledBatch unfolded: φ3 applied per node before the weighted
/// sum of Eq. (11), and the unfused LSTM cell.
nn::Var OracleForward(const LstGat& model,
                      const std::vector<const StGraph*>& graphs) {
  const std::vector<nn::Var> p = model.Params();
  // phi1, phi2, phi3, W_ih, W_hh, b, head W, head b
  const int groups = static_cast<int>(graphs.size()) * kNumAreas;
  const int d_lstm = model.config().d_lstm;
  nn::LstmState s{nn::Var::Constant(nn::Tensor::Zeros(groups, d_lstm)),
                  nn::Var::Constant(nn::Tensor::Zeros(groups, d_lstm))};
  for (int k = 0; k < graphs[0]->z(); ++k) {
    const nn::Var m = StackStep(graphs, k);
    const nn::Var alpha = nn::Reshape(OracleAttention(model, m, groups),
                                      groups * kNodesPerTarget, 1);
    const nn::Var updated = nn::SumRowGroups(
        nn::ScaleRows(nn::MatMul(m, p[2]), alpha), kNodesPerTarget);
    s = OracleLstmStep(updated, s, p[3], p[4], p[5]);
  }
  return nn::Affine(s.h, p[6], p[7]);
}

// ---- Inputs ----

/// A random scene around an ego in lane 3: each of the six neighbour slots
/// is occupied with probability 3/4, the rest become phantoms.
StGraph RandomGraph(Rng& rng, int z = 5) {
  const RoadConfig road;
  HistoryBuffer buffer(z);
  const double x0 = rng.Uniform(200.0, 800.0);
  const double v0 = rng.Uniform(15.0, 25.0);
  for (int k = 0; k < z; ++k) {
    ObservationFrame frame;
    frame.ego = {3, x0 + v0 * 0.5 * k, v0};
    int id = 7;
    for (int lane = 2; lane <= 4; ++lane) {
      for (const double side : {-1.0, 1.0}) {
        if (rng.Uniform(0.0, 1.0) < 0.25) continue;
        const double v = rng.Uniform(12.0, 28.0);
        frame.observed.push_back(
            {id++, {lane, x0 + side * rng.Uniform(10.0, 80.0) + v * 0.5 * k,
                    v}});
      }
    }
    buffer.Push(frame);
  }
  return BuildStGraph(ConstructPhantoms(buffer, road, 100.0), road);
}

bool SameBits(const nn::Tensor& a, const nn::Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     sizeof(double) * a.size()) == 0;
}

/// Restores the process-global ISA and fast_math state after each test.
class OracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    isa_ = kernels::ActiveIsa();
    fast_math_ = kernels::FastMathEnabled();
  }
  void TearDown() override {
    kernels::SetActiveIsa(isa_);
    kernels::SetFastMath(fast_math_);
  }

 private:
  kernels::Isa isa_ = kernels::Isa::kScalar;
  bool fast_math_ = true;
};

// ---- The fused cell against the unfused one ----

/// Unrolls `steps` cell steps over inputs `xs`, weighs h and c into one
/// loss (so both backward paths carry gradient), runs Backward, and returns
/// the final h, c and the three parameter gradients.
std::vector<nn::Tensor> UnrollAndBackward(nn::LstmCell& cell,
                                          const std::vector<nn::Tensor>& xs,
                                          bool oracle) {
  nn::ResetTape();
  const std::vector<nn::Var> p = cell.Params();
  for (nn::Var q : p) q.ZeroGrad();
  nn::LstmState s = cell.InitialState(xs[0].rows());
  for (const nn::Tensor& x : xs) {
    const nn::Var xv = nn::Var::Constant(x);
    s = oracle ? OracleLstmStep(xv, s, p[0], p[1], p[2]) : cell.Forward(xv, s);
  }
  nn::Tensor wh(s.h.value().rows(), s.h.value().cols());
  for (int i = 0; i < wh.size(); ++i) wh[i] = 0.3 * std::sin(1.7 * i) - 0.1;
  const nn::Var loss =
      nn::Add(nn::Sum(nn::Mul(s.h, nn::Var::Constant(wh))),
              nn::Scale(nn::Sum(nn::Square(s.c)), 0.25));
  nn::Backward(loss);
  return {s.h.value(), s.c.value(), p[0].grad(), p[1].grad(), p[2].grad()};
}

TEST_F(OracleTest, FusedCellWithFastMathOffIsBitwiseTheUnfusedCell) {
  // Scalar backend, and the AVX2 backend with fast_math off: both must
  // reproduce the unfused ops bit for bit, forward and backward. Row 0 is
  // all zeros, so at step 0 its cell input is exactly 0 and signed zeros
  // reach the gate gradients.
  for (const bool avx2 : {false, true}) {
    if (avx2 && !kernels::SetActiveIsa(kernels::Isa::kAvx2)) continue;
    if (!avx2) kernels::SetActiveIsa(kernels::Isa::kScalar);
    kernels::SetFastMath(false);
    for (const int hidden : {64, 5}) {
      Rng rng(41 + hidden);
      nn::LstmCell cell(4, hidden, rng);
      std::vector<nn::Tensor> xs;
      for (int k = 0; k < 4; ++k) {
        nn::Tensor x = nn::Tensor::Uniform(6, 4, -2.0, 2.0, rng);
        for (int c = 0; c < 4; ++c) x.At(0, c) = 0.0;
        xs.push_back(std::move(x));
      }
      const std::vector<nn::Tensor> fused = UnrollAndBackward(cell, xs, false);
      const std::vector<nn::Tensor> oracle = UnrollAndBackward(cell, xs, true);
      const char* what[] = {"h", "c", "dW_ih", "dW_hh", "db"};
      for (size_t i = 0; i < fused.size(); ++i) {
        EXPECT_TRUE(SameBits(fused[i], oracle[i]))
            << what[i] << " avx2=" << avx2 << " hidden=" << hidden;
      }
    }
  }
}

TEST_F(OracleTest, FusedCellOnPolynomialGatesIsCloseToTheUnfusedCell) {
  kernels::SetFastMath(true);
  if (!kernels::SetActiveIsa(kernels::Isa::kAvx2)) {
    GTEST_SKIP() << "no AVX2+FMA on this machine";
  }
  Rng rng(43);
  nn::LstmCell cell(4, 64, rng);
  std::vector<nn::Tensor> xs;
  for (int k = 0; k < 5; ++k) {
    xs.push_back(nn::Tensor::Uniform(6, 4, -3.0, 3.0, rng));
  }
  const std::vector<nn::Tensor> fused = UnrollAndBackward(cell, xs, false);
  const std::vector<nn::Tensor> oracle = UnrollAndBackward(cell, xs, true);
  for (size_t i = 0; i < fused.size(); ++i) {
    for (int e = 0; e < fused[i].size(); ++e) {
      ASSERT_NEAR(fused[i][e], oracle[i][e], 1e-12) << "output " << i;
    }
  }
}

// ---- The folded LST-GAT against the unfolded one ----

TEST_F(OracleTest, FoldedForwardMatchesUnfoldedOracle) {
  for (const bool attention : {true, false}) {
    LstGatConfig config;
    config.use_attention = attention;
    Rng wrng(47);
    const LstGat model(config, wrng);
    Rng grng(53);
    std::vector<StGraph> graphs;
    for (int i = 0; i < 9; ++i) graphs.push_back(RandomGraph(grng));
    // B = 1 for each graph, then all nine as one batch.
    std::vector<std::vector<const StGraph*>> batches;
    for (const StGraph& g : graphs) batches.push_back({&g});
    batches.emplace_back();
    for (const StGraph& g : graphs) batches.back().push_back(&g);
    for (const auto& batch : batches) {
      nn::ResetTape();
      const nn::Tensor got = model.ForwardScaledBatch(batch).value();
      const nn::Tensor want = OracleForward(model, batch).value();
      ASSERT_EQ(got.rows(), want.rows());
      for (int e = 0; e < got.size(); ++e) {
        ASSERT_NEAR(got[e], want[e], 1e-9)
            << "attention=" << attention << " B=" << batch.size();
      }
    }
  }
}

TEST_F(OracleTest, FoldedAttentionWeightsMatchUnfoldedOracle) {
  for (const bool attention : {true, false}) {
    LstGatConfig config;
    config.use_attention = attention;
    Rng wrng(59);
    const LstGat model(config, wrng);
    Rng grng(61);
    for (int trial = 0; trial < 10; ++trial) {
      const StGraph graph = RandomGraph(grng);
      nn::ResetTape();
      const nn::Tensor oracle =
          OracleAttention(model, StackStep({&graph}, graph.z() - 1),
                          kNumAreas)
              .value();
      for (int i = 0; i < kNumAreas; ++i) {
        const std::vector<double> alpha = model.AttentionWeights(graph, i);
        for (int n = 0; n < kNodesPerTarget; ++n) {
          ASSERT_NEAR(alpha[n], oracle.At(i, n), 1e-9)
              << "attention=" << attention << " target " << i;
        }
      }
    }
  }
}

// ---- Finite differences ----

/// Central differences of `loss` (rebuilt from the live parameter values on
/// every call) against Backward, on every element of `param`.
void CheckGradient(nn::Var param, const std::function<nn::Var()>& loss,
                   double eps = 1e-6, double tol = 1e-5) {
  param.ZeroGrad();
  nn::Backward(loss());
  const nn::Tensor analytic = param.grad();
  nn::Tensor& value = param.mutable_value();
  for (int i = 0; i < value.size(); ++i) {
    const double saved = value[i];
    value[i] = saved + eps;
    const double up = loss().value()[0];
    value[i] = saved - eps;
    const double down = loss().value()[0];
    value[i] = saved;
    const double numeric = (up - down) / (2.0 * eps);
    ASSERT_NEAR(analytic[i], numeric, tol * std::max(1.0, std::abs(numeric)))
        << "element " << i;
  }
}

/// A fixed, uneven cotangent for a (rows × cols) output.
nn::Var Weights(int rows, int cols) {
  nn::Tensor w(rows, cols);
  for (int i = 0; i < w.size(); ++i) w[i] = 0.5 * std::cos(0.9 * i) + 0.2;
  return nn::Var::Constant(std::move(w));
}

TEST_F(OracleTest, FusedCellGradientsMatchFiniteDifferences) {
  // Default backend and fast_math (the polynomial gates on AVX2), hidden 5
  // so the masked tail is differentiated too.
  Rng rng(67);
  nn::LstmCell cell(3, 5, rng);
  std::vector<nn::Var> xs;
  for (int k = 0; k < 3; ++k) {
    xs.push_back(nn::Var::Constant(nn::Tensor::Uniform(4, 3, -1.5, 1.5, rng)));
  }
  const nn::Var w = Weights(4, 5);
  const auto loss = [&] {
    nn::LstmState s = cell.InitialState(4);
    for (const nn::Var& x : xs) s = cell.Forward(x, s);
    return nn::Add(nn::Sum(nn::Mul(s.h, w)),
                   nn::Scale(nn::Sum(nn::Mul(s.c, w)), 0.5));
  };
  const char* names[] = {"W_ih", "W_hh", "b"};
  const std::vector<nn::Var> params = cell.Params();
  for (size_t i = 0; i < params.size(); ++i) {
    SCOPED_TRACE(names[i]);
    CheckGradient(params[i], loss);
  }
}

TEST_F(OracleTest, FoldedLstGatGradientsMatchFiniteDifferences) {
  // Narrow widths keep every element checkable; D_l = 5 puts the cell on
  // its masked tail.
  LstGatConfig config;
  config.d_phi1 = 6;
  config.d_phi3 = 7;
  config.d_lstm = 5;
  Rng wrng(71);
  LstGat model(config, wrng);
  Rng grng(73);
  const StGraph g0 = RandomGraph(grng, 3);
  const StGraph g1 = RandomGraph(grng, 3);
  const auto loss = [&] {
    nn::ResetTape();
    return nn::Sum(nn::Mul(model.ForwardScaledBatch({&g0, &g1}),
                           Weights(2 * kNumAreas, 3)));
  };
  const char* names[] = {"phi1", "phi2", "phi3", "W_ih", "W_hh", "b"};
  const std::vector<nn::Var> params = model.Params();
  for (int i = 0; i < 6; ++i) {
    SCOPED_TRACE(names[i]);
    CheckGradient(params[i], loss);
  }
}

}  // namespace
}  // namespace head::perception
