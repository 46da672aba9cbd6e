#include "nn/tensor.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <utility>

#include "common/check.h"
#include "nn/kernels/simd.h"
#include "nn/tensor_pool.h"

namespace head::nn {

namespace {

// ---- Pooled storage plumbing ----
//
// All tensor buffers route through the calling thread's TensorPool. When the
// pool is already gone (thread teardown) both helpers degrade to plain
// vector allocation/free, so destruction order between thread_locals that
// hold Tensors (e.g. the graph arena) and the pool never matters.

std::vector<double> PoolAcquire(size_t n) {
  if (TensorPool* pool = TensorPool::Get()) return pool->Acquire(n);
  return {};
}

void PoolRelease(std::vector<double>&& buf) {
  if (buf.capacity() == 0) return;
  if (TensorPool* pool = TensorPool::Get()) pool->Release(std::move(buf));
}

}  // namespace

Tensor::Tensor(int rows, int cols, double fill)
    : rows_(rows),
      cols_(cols),
      data_(PoolAcquire(static_cast<size_t>(rows) * cols)) {
  HEAD_CHECK_GE(rows, 0);
  HEAD_CHECK_GE(cols, 0);
  data_.assign(static_cast<size_t>(rows) * cols, fill);
}

Tensor::Tensor(int rows, int cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  HEAD_CHECK_EQ(static_cast<size_t>(rows) * cols, data_.size());
}

Tensor::Tensor(const Tensor& other)
    : rows_(other.rows_),
      cols_(other.cols_),
      data_(PoolAcquire(other.data_.size())) {
  data_.assign(other.data_.begin(), other.data_.end());
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  rows_ = other.rows_;
  cols_ = other.cols_;
  if (data_.capacity() < other.data_.size()) {
    // Growing in place would heap-reallocate behind the pool's back; swap
    // the undersized buffer for a pooled one instead.
    PoolRelease(std::move(data_));
    data_ = PoolAcquire(other.data_.size());
  }
  data_.assign(other.data_.begin(), other.data_.end());
  return *this;
}

Tensor::Tensor(Tensor&& other) noexcept
    : rows_(other.rows_), cols_(other.cols_), data_(std::move(other.data_)) {
  other.rows_ = 0;
  other.cols_ = 0;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  // vector move-assignment would free our buffer directly; pool it instead.
  PoolRelease(std::move(data_));
  rows_ = other.rows_;
  cols_ = other.cols_;
  data_ = std::move(other.data_);
  other.rows_ = 0;
  other.cols_ = 0;
  return *this;
}

Tensor::~Tensor() { PoolRelease(std::move(data_)); }

Tensor Tensor::Uninitialized(int rows, int cols) {
  HEAD_CHECK_GE(rows, 0);
  HEAD_CHECK_GE(cols, 0);
  Tensor t;
  t.rows_ = rows;
  t.cols_ = cols;
  const size_t n = static_cast<size_t>(rows) * cols;
  t.data_ = PoolAcquire(n);
  // A recycled buffer keeps the size it was released with, which in a
  // steady-state loop of fixed shapes is exactly n — the resize is then a
  // no-op. Only a size-mismatched (or freshly heap-backed) buffer pays a
  // value-init, and only for the gap.
  t.data_.resize(n);
  return t;
}

Tensor Tensor::Uniform(int rows, int cols, double lo, double hi, Rng& rng) {
  Tensor t(rows, cols);
  for (double& v : t.data_) v = rng.Uniform(lo, hi);
  return t;
}

Tensor Tensor::XavierUniform(int fan_in, int fan_out, Rng& rng) {
  const double bound = std::sqrt(6.0 / (fan_in + fan_out));
  return Uniform(fan_in, fan_out, -bound, bound, rng);
}

void Tensor::SetZero() {
  for (double& v : data_) v = 0.0;
}

void Tensor::AddScaled(const Tensor& other, double alpha) {
  HEAD_CHECK_EQ(rows_, other.rows_);
  HEAD_CHECK_EQ(cols_, other.cols_);
  kernels::Axpy(static_cast<int>(data_.size()), alpha, other.data_.data(),
                data_.data());
}

double Tensor::Norm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

double Tensor::MaxAbs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

std::ostream& operator<<(std::ostream& os, const Tensor& t) {
  os << "Tensor(" << t.rows() << "x" << t.cols() << ")[";
  for (int r = 0; r < t.rows(); ++r) {
    os << (r == 0 ? "[" : ", [");
    for (int c = 0; c < t.cols(); ++c) {
      os << (c == 0 ? "" : ", ") << t.At(r, c);
    }
    os << "]";
  }
  return os << "]";
}

// The matmul family routes through the kernel dispatch layer
// (nn/kernels/simd.h): runtime ISA selection between the portable scalar
// schedules (byte-identical to the loops that used to live here) and the
// AVX2 packed microkernel, with row-partitioning across the global thread
// pool handled inside the dispatcher. See DESIGN.md "SIMD kernel dispatch"
// for the determinism contract.

Tensor MatMul(const Tensor& a, const Tensor& b) {
  HEAD_CHECK_EQ(a.cols(), b.rows());
  const int m = a.rows(), kk = a.cols(), n = b.cols();
  Tensor out = Tensor::Uninitialized(m, n);
  kernels::GemmNN(m, n, kk, a.data().data(), b.data().data(),
                  /*bias=*/nullptr, kernels::GemmInit::kZero,
                  out.data().data());
  return out;
}

Tensor Affine(const Tensor& a, const Tensor& b, const Tensor& bias) {
  HEAD_CHECK_EQ(a.cols(), b.rows());
  HEAD_CHECK_EQ(bias.rows(), 1);
  HEAD_CHECK_EQ(bias.cols(), b.cols());
  const int m = a.rows(), kk = a.cols(), n = b.cols();
  Tensor out = Tensor::Uninitialized(m, n);
  kernels::GemmNN(m, n, kk, a.data().data(), b.data().data(),
                  bias.data().data(), kernels::GemmInit::kBias,
                  out.data().data());
  return out;
}

Tensor MatMulTransposeB(const Tensor& a, const Tensor& b) {
  HEAD_CHECK_EQ(a.cols(), b.cols());
  const int m = a.rows(), kk = a.cols(), n = b.rows();
  Tensor out = Tensor::Uninitialized(m, n);
  kernels::GemmNT(m, n, kk, a.data().data(), b.data().data(),
                  out.data().data());
  return out;
}

Tensor MatMulTransposeA(const Tensor& a, const Tensor& b) {
  HEAD_CHECK_EQ(a.rows(), b.rows());
  const int kk = a.rows(), m = a.cols(), n = b.cols();
  Tensor out = Tensor::Uninitialized(m, n);
  kernels::GemmTN(m, n, kk, a.data().data(), b.data().data(),
                  kernels::GemmInit::kZero, out.data().data());
  return out;
}

Tensor Transpose(const Tensor& a) {
  const int rows = a.rows(), cols = a.cols();
  Tensor out = Tensor::Uninitialized(cols, rows);
  const double* pa = a.data().data();
  double* po = out.data().data();
  // Cache-blocked: both the row-major read and the strided write stay within
  // a block that fits in L1, instead of striding the whole output per row.
  constexpr int kBlock = 32;
  for (int r0 = 0; r0 < rows; r0 += kBlock) {
    const int r1 = std::min(rows, r0 + kBlock);
    for (int c0 = 0; c0 < cols; c0 += kBlock) {
      const int c1 = std::min(cols, c0 + kBlock);
      for (int r = r0; r < r1; ++r) {
        const double* arow = pa + static_cast<size_t>(r) * cols;
        for (int c = c0; c < c1; ++c) {
          po[static_cast<size_t>(c) * rows + r] = arow[c];
        }
      }
    }
  }
  return out;
}

namespace {
void CheckSameShape(const Tensor& a, const Tensor& b) {
  HEAD_CHECK_EQ(a.rows(), b.rows());
  HEAD_CHECK_EQ(a.cols(), b.cols());
}
}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  Tensor out = a;
  out.AddScaled(b, 1.0);
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  Tensor out = a;
  out.AddScaled(b, -1.0);
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  Tensor out = Tensor::Uninitialized(a.rows(), a.cols());
  const double* pa = a.data().data();
  const double* pb = b.data().data();
  double* po = out.data().data();
  const int n = a.size();
  for (int i = 0; i < n; ++i) po[i] = pa[i] * pb[i];
  return out;
}

Tensor Scale(const Tensor& a, double s) {
  Tensor out = Tensor::Uninitialized(a.rows(), a.cols());
  const double* pa = a.data().data();
  double* po = out.data().data();
  const int n = a.size();
  for (int i = 0; i < n; ++i) po[i] = pa[i] * s;
  return out;
}

Tensor AddRowBroadcast(const Tensor& a, const Tensor& row) {
  HEAD_CHECK_EQ(row.rows(), 1);
  HEAD_CHECK_EQ(row.cols(), a.cols());
  Tensor out = a;
  const int cols = a.cols();
  const double* pr = row.data().data();
  for (int r = 0; r < a.rows(); ++r) {
    double* orow = out.data().data() + static_cast<size_t>(r) * cols;
    for (int c = 0; c < cols; ++c) orow[c] += pr[c];
  }
  return out;
}

Tensor SumRows(const Tensor& a) {
  const int cols = a.cols();
  Tensor out(1, cols);
  double* po = out.data().data();
  for (int r = 0; r < a.rows(); ++r) {
    const double* arow = a.data().data() + static_cast<size_t>(r) * cols;
    for (int c = 0; c < cols; ++c) po[c] += arow[c];
  }
  return out;
}

Tensor RowwiseMax(const Tensor& a) {
  HEAD_CHECK_GE(a.cols(), 1);
  Tensor out = Tensor::Uninitialized(a.rows(), 1);
  kernels::RowwiseMax(a.rows(), a.cols(), a.data().data(), out.data().data(),
                      /*argmax=*/nullptr);
  return out;
}

}  // namespace head::nn
