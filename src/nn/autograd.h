// Reverse-mode automatic differentiation over 2-D tensors.
//
// A Var is a cheap handle to a node in a dynamically built computation
// graph. Op nodes are recycled through the calling thread's GraphArena (see
// arena.h): every op bump-allocates its node from the arena, and the whole
// tape is reclaimed in O(1) by ResetTape() at the start of the next
// graph-building region instead of being torn down node by node. Handles
// carry the arena epoch at creation, so a Var used after its node was
// recycled trips HEAD_DCHECK in debug builds. Params (and other persistent
// leaves) are heap-allocated, owned by their handles, and survive resets.
//
// Every op allocates its result eagerly and, when any input requires
// gradients, records a backward function. Backward(loss) runs them in
// reverse topological order, accumulating into each parameter's .grad().
#ifndef HEAD_NN_AUTOGRAD_H_
#define HEAD_NN_AUTOGRAD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/tensor.h"

namespace head::nn {

namespace internal {
struct VarImpl;
}  // namespace internal

class Var {
 public:
  /// Undefined handle; must not be used in ops.
  Var() = default;

  /// Trainable leaf: gradients accumulate here on Backward(). Persistent —
  /// heap-allocated and owned by its handles, unaffected by ResetTape().
  static Var Param(Tensor value);
  /// Non-trainable leaf (inputs, targets). Arena-allocated: valid only
  /// until the calling thread's next ResetTape().
  static Var Constant(Tensor value);

  bool defined() const { return node_ != nullptr; }
  /// False once the node behind this handle has been recycled by a tape
  /// reset (always true for persistent leaves). Accessors HEAD_DCHECK this.
  bool alive() const;
  const Tensor& value() const;
  /// In-place access for optimizers / target-network updates. Mutating a
  /// value invalidates any graph previously built from this Var.
  Tensor& mutable_value();
  /// Accumulated gradient; zero-sized until first Backward().
  const Tensor& grad() const;
  Tensor& mutable_grad();
  bool requires_grad() const;
  /// Clears the accumulated gradient (keeps allocation).
  void ZeroGrad();

  // Internal constructors/accessors (used by the op implementations).
  Var(internal::VarImpl* node, uint64_t epoch) : node_(node), epoch_(epoch) {}
  explicit Var(std::shared_ptr<internal::VarImpl> owner);
  internal::VarImpl* node() const { return node_; }

 private:
  internal::VarImpl* node_ = nullptr;
  uint64_t epoch_ = 0;
  std::shared_ptr<internal::VarImpl> owner_;  // set only for persistent leaves
};

/// Runs reverse-mode differentiation from `loss` (must be 1×1), accumulating
/// into the .grad() of every reachable Param. The topological sort is an
/// explicit-stack DFS over persistent arena scratch (no recursion, no
/// per-call containers), so graph depth is bounded by memory, not the call
/// stack.
void Backward(const Var& loss);

/// Recycles the calling thread's tape in O(1) (declared in arena.h too).
/// Call at the start of each graph-building region.
void ResetTape();

// ---- Gradient mode ----
//
// Ops consult a thread-local flag before recording backward functions. With
// gradients disabled every op still computes its value but produces a plain
// constant node — no parents, no backward — which keeps inference and
// target-network evaluation off the backward path entirely.

/// True (the default) when ops record backward functions on this thread.
bool GradEnabled();

/// RAII guard that disables backward recording for its scope (nestable).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

// ---- Differentiable ops ----

Var MatMul(const Var& a, const Var& b);
/// a·bᵀ with b stored (n×k) — for products whose right operand is a
/// parameter laid out row-wise (LST-GAT's folded attention matrix).
Var MatMulTransposeB(const Var& a, const Var& b);
/// Fused a·b + row-broadcast bias — one graph node and one output traversal
/// instead of the MatMul + AddRowBroadcast pair (see nn::Affine on Tensor).
Var Affine(const Var& a, const Var& b, const Var& bias);

/// Activation fused into AffineAct (kernels apply it in place on the GEMM
/// output; backward recovers act'(y) from the output alone).
enum class FusedAct : int { kNone = 0, kRelu, kLeakyRelu, kTanh, kSigmoid };

/// act(a·b + bias) as one graph node: no activation tensor, no extra tape
/// node, one output traversal. kNone degrades to Affine. `leaky_slope` is
/// read only for kLeakyRelu.
Var AffineAct(const Var& a, const Var& b, const Var& bias, FusedAct act,
              double leaky_slope = 0.01);

/// bias + a1·b1 + a2·b2 as one graph node — the LSTM gate pre-activation
/// shape. The second product accumulates directly into the first's output,
/// saving the Add node and a full gate-width temporary per step.
Var DualAffine(const Var& a1, const Var& b1, const Var& a2, const Var& b2,
               const Var& bias);

/// The c and h of one LSTM step (see LstmCellStep).
struct LstmCellVars {
  Var c;
  Var h;
};

/// The fused LSTM cell: from the (rows × 4h) gate pre-activations in
/// [i f g o] order and the (rows × h) previous cell state,
/// c = σ(f)⊙c_prev + σ(i)⊙tanh(g) and h = σ(o)⊙tanh(c), as two graph nodes
/// with no per-gate slice, activation or product nodes. The c node keeps
/// the four gate activations and the h node tanh(c); each backward reads
/// them instead of recomputing. Arithmetic and routing are
/// kernels::LstmCell's: with fast_math off, bitwise the unfused composition.
LstmCellVars LstmCellStep(const Var& gates, const Var& c_prev);

Var Add(const Var& a, const Var& b);
Var Sub(const Var& a, const Var& b);
Var Mul(const Var& a, const Var& b);  // elementwise
Var Scale(const Var& a, double s);
Var AddScalar(const Var& a, double s);
/// Adds a 1×cols row vector to every row of `a` (bias add).
Var AddRowBroadcast(const Var& a, const Var& row);

Var Relu(const Var& a);
Var LeakyRelu(const Var& a, double negative_slope = 0.01);
Var Tanh(const Var& a);
Var Sigmoid(const Var& a);

/// Row-wise softmax.
Var SoftmaxRows(const Var& a);

Var ConcatCols(const std::vector<Var>& parts);
Var ConcatRows(const std::vector<Var>& parts);
Var SliceCols(const Var& a, int c0, int c1);  // [c0, c1)
Var SliceRows(const Var& a, int r0, int r1);  // [r0, r1)

/// Reinterprets `a` as rows×cols (same element count, row-major order kept).
Var Reshape(const Var& a, int rows, int cols);

// ---- Batched (minibatch) ops ----

/// out[i] = a[rows[i]]; rows may repeat. Backward scatter-adds.
Var GatherRows(const Var& a, std::vector<int> rows);

/// (rows×1) column with out[r] = a[r, cols[r]] — the per-row one-hot select
/// used to pick the chosen behavior's Q value out of a (B×|A|) matrix.
Var SelectColumnPerRow(const Var& a, std::vector<int> cols);

/// (rows×1) column of per-row maxima; the gradient routes to the (first)
/// argmax entry of each row.
Var RowwiseMax(const Var& a);

/// Sums all rows into a (1×cols) row vector (differentiable counterpart of
/// the raw tensor SumRows).
Var SumRows(const Var& a);

/// out[r,c] = a[r,c] · scale[r]; `scale` is (rows×1). Differentiable in both
/// inputs — the row-wise attention weighting of the batched GAT step.
Var ScaleRows(const Var& a, const Var& scale);

/// Sums each consecutive group of `group_size` rows: (G·group_size × cols)
/// → (G × cols). The block-diagonal aggregation of the batched GAT step.
Var SumRowGroups(const Var& a, int group_size);

/// (G·n × 2) → (G × n) with out[g, j] = s[g·n, 0] + s[g·n + j, 1]: pairs
/// each group's first row (column 0) with every row of the group
/// (column 1) — the folded attention score of LST-GAT's Eq. (10).
Var GroupPairSum(const Var& s, int group_size);

Var Sum(const Var& a);   // 1×1
Var Mean(const Var& a);  // 1×1
Var Square(const Var& a);

/// Mean squared error over all elements; `target` is treated as constant.
Var MseLoss(const Var& pred, const Var& target);

}  // namespace head::nn

#endif  // HEAD_NN_AUTOGRAD_H_
