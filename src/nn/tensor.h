// A dense 2-D row-major matrix of doubles plus the raw (non-differentiable)
// operations needed by the autograd layer and the optimizers. Kept
// deliberately small: the networks in the paper (Linear, LSTM, GAT heads)
// only ever need rank-2 math with row-broadcast bias addition.
#ifndef HEAD_NN_TENSOR_H_
#define HEAD_NN_TENSOR_H_

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace head::nn {

// Storage comes from the thread-local TensorPool (see tensor_pool.h): the
// special members below acquire from / release to power-of-two free lists
// instead of the heap, so tensor churn in the training hot path stops
// allocating once the pool is warm. The API is unchanged — data() still
// exposes the underlying std::vector.
class Tensor {
 public:
  /// Empty 0×0 tensor.
  Tensor() = default;

  /// rows×cols tensor initialized to `fill`.
  Tensor(int rows, int cols, double fill = 0.0);

  /// rows×cols tensor taking ownership of `data` (size must be rows*cols).
  /// The adopted buffer joins the pool's recycling on destruction.
  Tensor(int rows, int cols, std::vector<double> data);

  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(Tensor&& other) noexcept;
  ~Tensor();

  /// rows×cols tensor with unspecified contents — for outputs whose every
  /// element the caller writes before any read (GEMM results, transposes).
  /// Skips the zero-fill Tensor(rows, cols) would pay just to have the
  /// kernel overwrite it; in a warm steady-state loop the recycled pool
  /// buffer already has the right size, so construction touches no memory.
  static Tensor Uninitialized(int rows, int cols);

  static Tensor Zeros(int rows, int cols) { return Tensor(rows, cols, 0.0); }
  static Tensor Full(int rows, int cols, double v) {
    return Tensor(rows, cols, v);
  }
  /// Uniform in [lo, hi).
  static Tensor Uniform(int rows, int cols, double lo, double hi, Rng& rng);
  /// Xavier/Glorot uniform for a (fan_in → fan_out) weight.
  static Tensor XavierUniform(int fan_in, int fan_out, Rng& rng);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  // Inline: element loops (ConcatCols, SliceCols, the sensor/graph
  // builders) call these per element, where an out-of-line call costs more
  // than the access. HEAD_DCHECK keeps the bounds check in builds without
  // NDEBUG.
  double& At(int r, int c) {
    HEAD_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double At(int r, int c) const {
    HEAD_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double& operator[](int i) { return data_[i]; }
  double operator[](int i) const { return data_[i]; }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  /// Resets all entries to zero without reallocating.
  void SetZero();

  /// In-place axpy: *this += alpha * other. Shapes must match.
  void AddScaled(const Tensor& other, double alpha);

  /// Frobenius norm.
  double Norm() const;

  /// Largest absolute entry (0 for empty).
  double MaxAbs() const;

  friend bool operator==(const Tensor&, const Tensor&) = default;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;
};

std::ostream& operator<<(std::ostream& os, const Tensor& t);

// ---- Raw matrix ops (allocate their result; shape-checked). ----
//
// The matmul family routes through the SIMD kernel layer (nn/kernels/
// simd.h): runtime ISA dispatch (scalar vs AVX2 packed microkernel, gated
// by the fast_math flag) plus row-partitioning across
// parallel::ThreadPool::Global() once the multiply-add count clears a
// threshold (~2^18). Per-element accumulation order is invariant to thread
// count and blocking, so results are bitwise reproducible; with fast_math
// off (or the scalar backend) they are additionally bitwise identical to
// the original serial loops.

Tensor MatMul(const Tensor& a, const Tensor& b);
/// a·b + row-broadcast bias in one pass: output rows start as `bias`, so the
/// fused form skips the extra allocation and the two full traversals (copy +
/// add) that `AddRowBroadcast(MatMul(a, b), bias)` pays.
Tensor Affine(const Tensor& a, const Tensor& b, const Tensor& bias);
/// a·bᵀ without materializing the transpose.
Tensor MatMulTransposeB(const Tensor& a, const Tensor& b);
/// aᵀ·b without materializing the transpose.
Tensor MatMulTransposeA(const Tensor& a, const Tensor& b);
Tensor Transpose(const Tensor& a);
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);  // elementwise (Hadamard)
Tensor Scale(const Tensor& a, double s);
/// Adds a 1×cols row vector to every row of `a`.
Tensor AddRowBroadcast(const Tensor& a, const Tensor& row);
/// Sums all rows of `a` into a 1×cols row vector.
Tensor SumRows(const Tensor& a);
/// rows×1 column of per-row maxima (first-max tie-break); `a` must have at
/// least one column. Raw counterpart of the autograd RowwiseMax for
/// no-grad consumers like the batched TD-target path.
Tensor RowwiseMax(const Tensor& a);

}  // namespace head::nn

#endif  // HEAD_NN_TENSOR_H_
