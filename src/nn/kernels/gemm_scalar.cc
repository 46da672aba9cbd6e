// Portable scalar backend. The GEMM schedules are byte-for-byte the loops
// the tensor layer ran before the kernel split (ikj with zero-skip, per-row
// dot for column outputs, kij rank-1 for AᵀB, row-dot for ABᵀ), so the
// scalar backend — and any backend with fast_math off — reproduces the
// pre-SIMD numerics bitwise. Compiled with -ffp-contract=off so no future
// toolchain/arch flag can fuse these multiplies and adds behind our back.
#include <cmath>
#include <cstring>

#include "nn/kernels/kernel_table.h"

namespace head::nn::kernels::internal {

namespace {

void ScalarGemmNN(int m, int n, int k, const double* a, const double* b,
                  const double* bias, GemmInit init, double* c) {
  if (n == 1) {
    // Column output: a dot product per row streams both operands.
    for (int i = 0; i < m; ++i) {
      const double* arow = a + static_cast<size_t>(i) * k;
      double s = 0.0;
      for (int kk = 0; kk < k; ++kk) s += arow[kk] * b[kk];
      switch (init) {
        case GemmInit::kZero: c[i] = s; break;
        case GemmInit::kBias: c[i] = s + bias[0]; break;
        case GemmInit::kAccumulate: c[i] += s; break;
      }
    }
    return;
  }
  // ikj: out row i accumulates a[i,k] · b row k — contiguous in b and out.
  for (int i = 0; i < m; ++i) {
    const double* arow = a + static_cast<size_t>(i) * k;
    double* orow = c + static_cast<size_t>(i) * n;
    if (init == GemmInit::kZero) {
      for (int j = 0; j < n; ++j) orow[j] = 0.0;
    } else if (init == GemmInit::kBias) {
      for (int j = 0; j < n; ++j) orow[j] = bias[j];
    }
    for (int kk = 0; kk < k; ++kk) {
      const double aik = arow[kk];
      if (aik == 0.0) continue;  // one-hot / masked rows are common
      const double* brow = b + static_cast<size_t>(kk) * n;
      for (int j = 0; j < n; ++j) orow[j] += aik * brow[j];
    }
  }
}

void ScalarGemmTN(int m, int n, int k, const double* a, int lda,
                  const double* b, GemmInit init, double* c) {
  if (init != GemmInit::kAccumulate) {
    std::memset(c, 0, static_cast<size_t>(m) * n * sizeof(double));
  }
  if (n == 1) {
    // Column b: accumulate b[k]·a[k,:] into the output column with a
    // branch-free contiguous inner loop; k outermost keeps every output
    // element's accumulation order fixed for any row chunking.
    for (int kk = 0; kk < k; ++kk) {
      const double bk = b[kk];
      const double* arow = a + static_cast<size_t>(kk) * lda;
      for (int i = 0; i < m; ++i) c[i] += bk * arow[i];
    }
    return;
  }
  // kij: rank-1 update per shared row k — contiguous in b and out.
  for (int kk = 0; kk < k; ++kk) {
    const double* arow = a + static_cast<size_t>(kk) * lda;
    const double* brow = b + static_cast<size_t>(kk) * n;
    for (int i = 0; i < m; ++i) {
      const double aki = arow[i];
      if (aki == 0.0) continue;
      double* orow = c + static_cast<size_t>(i) * n;
      for (int j = 0; j < n; ++j) orow[j] += aki * brow[j];
    }
  }
}

void ScalarGemmNT(int m, int n, int k, const double* a, const double* b,
                  double* c) {
  // Each output element is a dot product of two contiguous rows.
  for (int i = 0; i < m; ++i) {
    const double* arow = a + static_cast<size_t>(i) * k;
    double* orow = c + static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const double* brow = b + static_cast<size_t>(j) * k;
      double s = 0.0;
      for (int kk = 0; kk < k; ++kk) s += arow[kk] * brow[kk];
      orow[j] = s;
    }
  }
}

void ScalarAxpy(int n, double alpha, const double* x, double* y) {
  for (int i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ScalarActForward(ActKind kind, double leaky_slope, int n, double* x) {
  switch (kind) {
    case ActKind::kNone:
      return;
    case ActKind::kRelu:
      for (int i = 0; i < n; ++i) x[i] = x[i] > 0.0 ? x[i] : 0.0;
      return;
    case ActKind::kLeakyRelu:
      for (int i = 0; i < n; ++i) x[i] = x[i] > 0.0 ? x[i] : leaky_slope * x[i];
      return;
    case ActKind::kTanh:
      for (int i = 0; i < n; ++i) x[i] = std::tanh(x[i]);
      return;
    case ActKind::kSigmoid:
      for (int i = 0; i < n; ++i) x[i] = 1.0 / (1.0 + std::exp(-x[i]));
      return;
  }
}

// All derivatives are functions of the *output* y (for relu/leaky, sign(y)
// matches sign(pre) exactly, with y == 0 mapping to the 0-slope branch the
// unfused backward uses for pre <= 0).
void ScalarActBackward(ActKind kind, double leaky_slope, int n,
                       const double* y, const double* gout, double* gin) {
  switch (kind) {
    case ActKind::kNone:
      if (gin != gout) std::memcpy(gin, gout, n * sizeof(double));
      return;
    case ActKind::kRelu:
      for (int i = 0; i < n; ++i) gin[i] = y[i] > 0.0 ? gout[i] : 0.0;
      return;
    case ActKind::kLeakyRelu:
      for (int i = 0; i < n; ++i) {
        gin[i] = y[i] > 0.0 ? gout[i] : leaky_slope * gout[i];
      }
      return;
    case ActKind::kTanh:
      for (int i = 0; i < n; ++i) gin[i] = gout[i] * (1.0 - y[i] * y[i]);
      return;
    case ActKind::kSigmoid:
      for (int i = 0; i < n; ++i) gin[i] = gout[i] * (y[i] * (1.0 - y[i]));
      return;
  }
}

void ScalarRowwiseMax(int rows, int cols, const double* a, double* out,
                      int* argmax) {
  for (int r = 0; r < rows; ++r) {
    const double* arow = a + static_cast<size_t>(r) * cols;
    int best = 0;
    for (int cc = 1; cc < cols; ++cc) {
      if (arow[cc] > arow[best]) best = cc;
    }
    out[r] = arow[best];
    if (argmax != nullptr) argmax[r] = best;
  }
}

void ScalarAdamStep(int n, double lr, double beta1, double beta2, double eps,
                    double bc1, double bc2, const double* g, double* m,
                    double* v, double* value) {
  for (int j = 0; j < n; ++j) {
    m[j] = beta1 * m[j] + (1.0 - beta1) * g[j];
    v[j] = beta2 * v[j] + (1.0 - beta2) * g[j] * g[j];
    const double m_hat = m[j] / bc1;
    const double v_hat = v[j] / bc2;
    value[j] -= lr * m_hat / (std::sqrt(v_hat) + eps);
  }
}

// The fused LSTM cell with the exact expressions of the unfused ops it
// replaces (nn::Sigmoid, nn::Tanh, nn::Mul, nn::Add), so fast_math-off
// replay stays bitwise.
double SigmoidLibm(double x) { return 1.0 / (1.0 + std::exp(-x)); }

void ScalarLstmCell(int rows, int hidden, const double* gates,
                    const double* c_prev, double* acts, double* c) {
  const size_t h = static_cast<size_t>(hidden);
  for (int r = 0; r < rows; ++r) {
    const double* pre = gates + r * 4 * h;
    double* act = acts + r * 4 * h;
    const double* cp = c_prev + r * h;
    double* cn = c + r * h;
    for (size_t j = 0; j < h; ++j) {
      const double i = SigmoidLibm(pre[j]);
      const double f = SigmoidLibm(pre[h + j]);
      const double g = std::tanh(pre[2 * h + j]);
      act[j] = i;
      act[h + j] = f;
      act[2 * h + j] = g;
      act[3 * h + j] = SigmoidLibm(pre[3 * h + j]);
      cn[j] = f * cp[j] + i * g;
    }
  }
}

void ScalarLstmHidden(int rows, int hidden, const double* acts,
                      const double* c, double* tanh_c, double* h_out) {
  const size_t h = static_cast<size_t>(hidden);
  for (int r = 0; r < rows; ++r) {
    const double* o = acts + r * 4 * h + 3 * h;
    for (size_t j = r * h; j < (r + 1) * h; ++j) {
      const double t = std::tanh(c[j]);
      tanh_c[j] = t;
      h_out[j] = o[j - r * h] * t;
    }
  }
}

}  // namespace

const KernelTable kScalarTable = {
    /*name=*/"scalar",
    /*gemm_nn=*/ScalarGemmNN,
    /*gemm_tn=*/ScalarGemmTN,
    /*gemm_nt=*/ScalarGemmNT,
    /*pack_b=*/nullptr,
    /*pack_bias=*/nullptr,
    /*gemm_packed=*/nullptr,
    /*axpy=*/ScalarAxpy,
    /*act_forward=*/ScalarActForward,
    /*act_backward=*/ScalarActBackward,
    /*rowwise_max=*/ScalarRowwiseMax,
    /*adam_step=*/ScalarAdamStep,
    /*lstm_cell=*/ScalarLstmCell,
    /*lstm_hidden=*/ScalarLstmHidden,
};

}  // namespace head::nn::kernels::internal
