#include "nn/autograd.h"

#include <atomic>
#include <cmath>
#include <initializer_list>
#include <utility>

#include "common/check.h"
#include "nn/arena.h"
#include "nn/kernels/simd.h"
#include "nn/plan.h"

namespace head::nn {

using internal::VarImpl;

Var::Var(std::shared_ptr<VarImpl> owner)
    : node_(owner.get()), owner_(std::move(owner)) {}

Var Var::Param(Tensor value) {
  auto owner = std::make_shared<VarImpl>();
  owner->value = std::move(value);
  owner->requires_grad = true;
  return Var(std::move(owner));
}

Var Var::Constant(Tensor value) {
  if (plan_internal::Active()) {
    // Captured constants freeze into the plan (initial LSTM state, ones
    // columns, …). Per-step data must come in through nn::PlanInput.
    VarImpl* node = plan_internal::NewNode();
    node->value = std::move(value);
    return Var(node, 0);
  }
  GraphArena& arena = GraphArena::ThreadLocal();
  VarImpl* node = arena.New();
  node->value = std::move(value);
  return Var(node, arena.epoch());
}

bool Var::alive() const {
  return node_ != nullptr && (owner_ != nullptr || node_->epoch == epoch_);
}

const Tensor& Var::value() const {
  HEAD_CHECK(defined());
  HEAD_DCHECK(alive());
  return node_->value;
}

Tensor& Var::mutable_value() {
  HEAD_CHECK(defined());
  HEAD_DCHECK(alive());
  return node_->value;
}

const Tensor& Var::grad() const {
  HEAD_CHECK(defined());
  HEAD_DCHECK(alive());
  if (node_->grad.empty()) {
    node_->grad = Tensor::Zeros(node_->value.rows(), node_->value.cols());
  }
  return node_->grad;
}

Tensor& Var::mutable_grad() {
  HEAD_CHECK(defined());
  HEAD_DCHECK(alive());
  if (node_->grad.empty()) {
    node_->grad = Tensor::Zeros(node_->value.rows(), node_->value.cols());
  }
  return node_->grad;
}

bool Var::requires_grad() const {
  HEAD_CHECK(defined());
  HEAD_DCHECK(alive());
  return node_->requires_grad;
}

void Var::ZeroGrad() {
  HEAD_CHECK(defined());
  HEAD_DCHECK(alive());
  if (!node_->grad.empty()) node_->grad.SetZero();
}

namespace {

thread_local bool g_grad_enabled = true;

/// Backward traversal stamps come from one process-wide counter so marks
/// never collide even if graphs sharing persistent leaves are differentiated
/// from different threads over the process lifetime.
std::atomic<uint64_t> g_traversal_counter{0};

uint64_t NextTraversalMark() {
  return g_traversal_counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Creates a result node from the thread's arena; records parents/backward
/// only if needed. `inputs` is a stack-backed pointer list — no per-op
/// container allocation. Under plan capture (plan.h) the node comes from
/// the plan's persistent storage instead, parents are always recorded
/// (replay needs the data edges even with gradients disabled), and
/// `forward` — the op's replay-recompute function — is frozen in.
Var MakeResult(const char* op, Tensor value,
               std::initializer_list<const Var*> inputs,
               void (*backward)(VarImpl&), void (*forward)(VarImpl&)) {
  bool needs = false;
  for (const Var* v : inputs) {
    HEAD_CHECK(v->defined());
    HEAD_DCHECK(v->alive());
    if (v->node()->requires_grad) needs = true;
  }
  if (!g_grad_enabled) needs = false;
  if (plan_internal::Active()) {
    VarImpl* node = plan_internal::NewNode();
    node->value = std::move(value);
    node->requires_grad = needs;
    node->op_name = op;
    node->forward = forward;
    for (const Var* v : inputs) node->parents.push_back(v->node());
    if (needs) node->backward = backward;
    return Var(node, 0);
  }
  GraphArena& arena = GraphArena::ThreadLocal();
  VarImpl* node = arena.New();
  node->value = std::move(value);
  node->requires_grad = needs;
  node->op_name = op;
  if (needs) {
    for (const Var* v : inputs) node->parents.push_back(v->node());
    node->backward = backward;
  }
  return Var(node, arena.epoch());
}

/// Variadic-input overload (Concat ops).
Var MakeResult(const char* op, Tensor value, const std::vector<Var>& inputs,
               void (*backward)(VarImpl&), void (*forward)(VarImpl&)) {
  bool needs = false;
  for (const Var& v : inputs) {
    HEAD_CHECK(v.defined());
    HEAD_DCHECK(v.alive());
    if (v.node()->requires_grad) needs = true;
  }
  if (!g_grad_enabled) needs = false;
  if (plan_internal::Active()) {
    VarImpl* node = plan_internal::NewNode();
    node->value = std::move(value);
    node->requires_grad = needs;
    node->op_name = op;
    node->forward = forward;
    node->parents.reserve(inputs.size());
    for (const Var& v : inputs) node->parents.push_back(v.node());
    if (needs) node->backward = backward;
    return Var(node, 0);
  }
  GraphArena& arena = GraphArena::ThreadLocal();
  VarImpl* node = arena.New();
  node->value = std::move(value);
  node->requires_grad = needs;
  node->op_name = op;
  if (needs) {
    node->parents.reserve(inputs.size());
    for (const Var& v : inputs) node->parents.push_back(v.node());
    node->backward = backward;
  }
  return Var(node, arena.epoch());
}

}  // namespace

bool GradEnabled() { return g_grad_enabled; }

NoGradGuard::NoGradGuard() : prev_(g_grad_enabled) { g_grad_enabled = false; }

NoGradGuard::~NoGradGuard() { g_grad_enabled = prev_; }

void Backward(const Var& loss) {
  HEAD_SCOPE("nn.backward");
  obs::ScopedProfPhase prof_phase(obs::ProfPhase::kBackward);
  HEAD_CHECK(loss.defined());
  HEAD_DCHECK(loss.alive());
  HEAD_CHECK_EQ(loss.value().rows(), 1);
  HEAD_CHECK_EQ(loss.value().cols(), 1);
  VarImpl* root = loss.node();
  GraphArena& arena = GraphArena::ThreadLocal();
  std::vector<VarImpl*>& order = arena.order_scratch();
  std::vector<std::pair<VarImpl*, size_t>>& stack = arena.stack_scratch();
  order.clear();  // capacity retained: reserved to the last call's node count
  stack.clear();

  // Explicit-stack DFS producing exactly the recursive post-order: a node is
  // marked when first reached (pushed), children are expanded left to right,
  // and the node is emitted once its last child subtree completes.
  const uint64_t mark = NextTraversalMark();
  root->visit_mark = mark;
  stack.emplace_back(root, 0);
  while (!stack.empty()) {
    std::pair<VarImpl*, size_t>& top = stack.back();
    VarImpl* node = top.first;
    if (top.second < node->parents.size()) {
      VarImpl* parent = node->parents[top.second++];
      if (parent->visit_mark != mark) {
        parent->visit_mark = mark;
        stack.emplace_back(parent, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }

  root->AccumGrad(Tensor::Full(1, 1, 1.0));
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    VarImpl& node = **it;
    if (node.backward != nullptr && !node.grad.empty()) {
      // Per-node attribution: the node's own loops count as self time, the
      // GEMMs its closure calls show up as nested kernel.* rows.
      HEAD_PROF_OP(node.op_name != nullptr ? node.op_name : "nn.op",
                   node.value.rows(), node.value.cols(), 0, 0, 0);
      node.backward(node);
    }
  }
  if (plan_internal::Active()) {
    // Plan capture: freeze the reverse schedule instead of tearing the tape
    // down — replay re-runs these exact closures in this exact order.
    // Intermediate grads are still dropped, so the captured step leaves the
    // same observable state (param grads only) as an eager step.
    plan_internal::RecordBackward(root, order);
    for (VarImpl* node : order) {
      if (node->backward != nullptr) node->grad = Tensor();
    }
    return;
  }
  // Release intermediate gradients/graph edges so only leaf grads persist
  // and repeated Backward calls cannot double-apply backward functions.
  for (VarImpl* node : order) {
    if (node->backward != nullptr) {
      node->backward = nullptr;
      node->parents.clear();
      node->grad = Tensor();
    }
  }
}

namespace {

void MatMulBackward(VarImpl& self) {
  VarImpl* a = self.parents[0];
  VarImpl* b = self.parents[1];
  if (a->requires_grad) a->AccumGrad(MatMulTransposeB(self.grad, b->value));
  if (b->requires_grad) b->AccumGrad(MatMulTransposeA(a->value, self.grad));
}

void MatMulTransposeBBackward(VarImpl& self) {
  VarImpl* a = self.parents[0];
  VarImpl* b = self.parents[1];
  if (a->requires_grad) a->AccumGrad(MatMul(self.grad, b->value));
  if (b->requires_grad) b->AccumGrad(MatMulTransposeA(self.grad, a->value));
}

void AffineBackward(VarImpl& self) {
  VarImpl* a = self.parents[0];
  VarImpl* b = self.parents[1];
  VarImpl* bias = self.parents[2];
  if (a->requires_grad) a->AccumGrad(MatMulTransposeB(self.grad, b->value));
  if (b->requires_grad) b->AccumGrad(MatMulTransposeA(a->value, self.grad));
  if (bias->requires_grad) bias->AccumGrad(SumRows(self.grad));
}

kernels::ActKind ToActKind(FusedAct act) {
  switch (act) {
    case FusedAct::kNone: return kernels::ActKind::kNone;
    case FusedAct::kRelu: return kernels::ActKind::kRelu;
    case FusedAct::kLeakyRelu: return kernels::ActKind::kLeakyRelu;
    case FusedAct::kTanh: return kernels::ActKind::kTanh;
    case FusedAct::kSigmoid: return kernels::ActKind::kSigmoid;
  }
  return kernels::ActKind::kNone;
}

void AffineActBackward(VarImpl& self) {
  VarImpl* a = self.parents[0];
  VarImpl* b = self.parents[1];
  VarImpl* bias = self.parents[2];
  // Fold act'(y) into the upstream gradient once, then reuse the premul'd
  // gradient for all three affine grads. The derivative comes from the
  // node's *output* (y > 0 ⟺ pre > 0 for relu/leaky; tanh/sigmoid
  // derivatives are functions of y), so the pre-activation is never stored.
  const auto kind = static_cast<kernels::ActKind>(self.aux_i);
  Tensor dpre(self.grad.rows(), self.grad.cols());
  kernels::ActBackward(kind, self.aux_d, dpre.size(),
                       self.value.data().data(), self.grad.data().data(),
                       dpre.data().data());
  if (a->requires_grad) a->AccumGrad(MatMulTransposeB(dpre, b->value));
  if (b->requires_grad) b->AccumGrad(MatMulTransposeA(a->value, dpre));
  if (bias->requires_grad) bias->AccumGrad(SumRows(dpre));
}

void DualAffineBackward(VarImpl& self) {
  VarImpl* a1 = self.parents[0];
  VarImpl* b1 = self.parents[1];
  VarImpl* a2 = self.parents[2];
  VarImpl* b2 = self.parents[3];
  VarImpl* bias = self.parents[4];
  if (a1->requires_grad) a1->AccumGrad(MatMulTransposeB(self.grad, b1->value));
  if (b1->requires_grad) b1->AccumGrad(MatMulTransposeA(a1->value, self.grad));
  if (a2->requires_grad) a2->AccumGrad(MatMulTransposeB(self.grad, b2->value));
  if (b2->requires_grad) b2->AccumGrad(MatMulTransposeA(a2->value, self.grad));
  if (bias->requires_grad) bias->AccumGrad(SumRows(self.grad));
}

void AddBackward(VarImpl& self) {
  self.parents[0]->AccumGrad(self.grad);
  self.parents[1]->AccumGrad(self.grad);
}

void SubBackward(VarImpl& self) {
  self.parents[0]->AccumGrad(self.grad);
  self.parents[1]->AccumGrad(Scale(self.grad, -1.0));
}

void MulBackward(VarImpl& self) {
  VarImpl* a = self.parents[0];
  VarImpl* b = self.parents[1];
  a->AccumGrad(Mul(self.grad, b->value));
  b->AccumGrad(Mul(self.grad, a->value));
}

void ScaleBackward(VarImpl& self) {
  self.parents[0]->AccumGrad(Scale(self.grad, self.aux_d));
}

void PassThroughBackward(VarImpl& self) {
  self.parents[0]->AccumGrad(self.grad);
}

void AddRowBroadcastBackward(VarImpl& self) {
  self.parents[0]->AccumGrad(self.grad);
  self.parents[1]->AccumGrad(SumRows(self.grad));
}

// ---- Plan-replay forward functions ----
//
// Each re-runs its op's eager arithmetic verbatim against the node's
// (re-fed) parents: the same kernel-table entry points, the same loop
// structure, the same HEAD_PROF_OP line — so a replayed step is bitwise
// identical to the eager step it was captured from, and the profiler
// attributes replayed ops under the same keys. Output geometry is static
// per plan and read back from the node's previous value where needed.

void MatMulForward(VarImpl& self) {
  const Tensor& a = self.parents[0]->value;
  const Tensor& b = self.parents[1]->value;
  HEAD_PROF_OP("nn.MatMul", a.rows(), b.cols(), a.cols(), 0, 0);
  self.value = MatMul(a, b);
}

void MatMulTransposeBForward(VarImpl& self) {
  const Tensor& a = self.parents[0]->value;
  const Tensor& b = self.parents[1]->value;
  HEAD_PROF_OP("nn.MatMulTransposeB", a.rows(), b.rows(), a.cols(), 0, 0);
  self.value = MatMulTransposeB(a, b);
}

void AffineForward(VarImpl& self) {
  const Tensor& a = self.parents[0]->value;
  const Tensor& b = self.parents[1]->value;
  HEAD_PROF_OP("nn.Affine", a.rows(), b.cols(), a.cols(), 0, 0);
  self.value = Affine(a, b, self.parents[2]->value);
}

void AffineActForward(VarImpl& self) {
  const Tensor& a = self.parents[0]->value;
  const Tensor& b = self.parents[1]->value;
  HEAD_PROF_OP("nn.AffineAct", a.rows(), b.cols(), a.cols(), 0, 0);
  Tensor out = Affine(a, b, self.parents[2]->value);
  kernels::ActForward(static_cast<kernels::ActKind>(self.aux_i), self.aux_d,
                      out.size(), out.data().data());
  self.value = std::move(out);
}

void DualAffineForward(VarImpl& self) {
  const Tensor& a1 = self.parents[0]->value;
  const Tensor& b1 = self.parents[1]->value;
  const Tensor& a2 = self.parents[2]->value;
  const Tensor& b2 = self.parents[3]->value;
  const Tensor& bias = self.parents[4]->value;
  const int m = a1.rows(), n = b1.cols();
  HEAD_PROF_OP("nn.DualAffine", m, n, a1.cols(), 0, 0);
  Tensor out = Tensor::Uninitialized(m, n);
  kernels::GemmNN(m, n, a1.cols(), a1.data().data(), b1.data().data(),
                  bias.data().data(), kernels::GemmInit::kBias,
                  out.data().data());
  kernels::GemmNN(m, n, a2.cols(), a2.data().data(), b2.data().data(),
                  /*bias=*/nullptr, kernels::GemmInit::kAccumulate,
                  out.data().data());
  self.value = std::move(out);
}

void AddForward(VarImpl& self) {
  const Tensor& a = self.parents[0]->value;
  HEAD_PROF_OP("nn.Add", a.rows(), a.cols(), 0, int64_t{a.size()},
               int64_t{24} * a.size());
  self.value = Add(a, self.parents[1]->value);
}

void SubForward(VarImpl& self) {
  const Tensor& a = self.parents[0]->value;
  HEAD_PROF_OP("nn.Sub", a.rows(), a.cols(), 0, int64_t{a.size()},
               int64_t{24} * a.size());
  self.value = Sub(a, self.parents[1]->value);
}

void MulForward(VarImpl& self) {
  const Tensor& a = self.parents[0]->value;
  HEAD_PROF_OP("nn.Mul", a.rows(), a.cols(), 0, int64_t{a.size()},
               int64_t{24} * a.size());
  self.value = Mul(a, self.parents[1]->value);
}

void ScaleForward(VarImpl& self) {
  const Tensor& a = self.parents[0]->value;
  HEAD_PROF_OP("nn.Scale", a.rows(), a.cols(), 0, int64_t{a.size()},
               int64_t{16} * a.size());
  self.value = Scale(a, self.aux_d);
}

void AddScalarForward(VarImpl& self) {
  const Tensor& a = self.parents[0]->value;
  HEAD_PROF_OP("nn.AddScalar", a.rows(), a.cols(), 0, int64_t{a.size()},
               int64_t{16} * a.size());
  const double s = self.aux_d;
  Tensor out = a;
  for (int i = 0; i < out.size(); ++i) out[i] += s;
  self.value = std::move(out);
}

void AddRowBroadcastForward(VarImpl& self) {
  const Tensor& a = self.parents[0]->value;
  HEAD_PROF_OP("nn.AddRowBroadcast", a.rows(), a.cols(), 0, int64_t{a.size()},
               int64_t{24} * a.size());
  self.value = AddRowBroadcast(a, self.parents[1]->value);
}

}  // namespace

Var MatMul(const Var& a, const Var& b) {
  HEAD_PROF_OP("nn.MatMul", a.value().rows(), b.value().cols(),
               a.value().cols(), 0, 0);  // flops live on the nested kernel
  Tensor out = MatMul(a.value(), b.value());
  return MakeResult("nn.MatMul", std::move(out), {&a, &b}, MatMulBackward,
                    MatMulForward);
}

Var MatMulTransposeB(const Var& a, const Var& b) {
  HEAD_CHECK_EQ(a.value().cols(), b.value().cols());
  HEAD_PROF_OP("nn.MatMulTransposeB", a.value().rows(), b.value().rows(),
               a.value().cols(), 0, 0);
  Tensor out = MatMulTransposeB(a.value(), b.value());
  return MakeResult("nn.MatMulTransposeB", std::move(out), {&a, &b},
                    MatMulTransposeBBackward, MatMulTransposeBForward);
}

Var Affine(const Var& a, const Var& b, const Var& bias) {
  HEAD_PROF_OP("nn.Affine", a.value().rows(), b.value().cols(),
               a.value().cols(), 0, 0);
  Tensor out = Affine(a.value(), b.value(), bias.value());
  return MakeResult("nn.Affine", std::move(out), {&a, &b, &bias},
                    AffineBackward, AffineForward);
}

Var AffineAct(const Var& a, const Var& b, const Var& bias, FusedAct act,
              double leaky_slope) {
  if (act == FusedAct::kNone) return Affine(a, b, bias);
  HEAD_PROF_OP("nn.AffineAct", a.value().rows(), b.value().cols(),
               a.value().cols(), 0, 0);
  Tensor out = Affine(a.value(), b.value(), bias.value());
  const kernels::ActKind kind = ToActKind(act);
  kernels::ActForward(kind, leaky_slope, out.size(), out.data().data());
  Var result = MakeResult("nn.AffineAct", std::move(out), {&a, &b, &bias},
                          AffineActBackward, AffineActForward);
  result.node()->aux_i = static_cast<int>(kind);
  result.node()->aux_d = leaky_slope;
  return result;
}

Var DualAffine(const Var& a1, const Var& b1, const Var& a2, const Var& b2,
               const Var& bias) {
  HEAD_CHECK_EQ(a1.value().cols(), b1.value().rows());
  HEAD_CHECK_EQ(a2.value().cols(), b2.value().rows());
  HEAD_CHECK_EQ(a1.value().rows(), a2.value().rows());
  HEAD_CHECK_EQ(b1.value().cols(), b2.value().cols());
  HEAD_CHECK_EQ(bias.value().rows(), 1);
  HEAD_CHECK_EQ(bias.value().cols(), b1.value().cols());
  const int m = a1.value().rows(), n = b1.value().cols();
  HEAD_PROF_OP("nn.DualAffine", m, n, a1.value().cols(), 0, 0);
  Tensor out = Tensor::Uninitialized(m, n);
  kernels::GemmNN(m, n, a1.value().cols(), a1.value().data().data(),
                  b1.value().data().data(), bias.value().data().data(),
                  kernels::GemmInit::kBias, out.data().data());
  kernels::GemmNN(m, n, a2.value().cols(), a2.value().data().data(),
                  b2.value().data().data(), /*bias=*/nullptr,
                  kernels::GemmInit::kAccumulate, out.data().data());
  return MakeResult("nn.DualAffine", std::move(out),
                    {&a1, &b1, &a2, &b2, &bias}, DualAffineBackward,
                    DualAffineForward);
}

namespace {

// ---- The fused LSTM cell ----
//
// Node c: parents {gates, c_prev}, value c, saved the (rows × 4h) gate
// activations [i f g o]. Node h: parents {gates, c}, value h, saved
// tanh(c); its forward reads σ(o) from c's saved block. The backward
// formulas are the unfused ops' own, association included — for example
// (dh·tanh c)·(o·(1 − o)) is Mul's backward followed by Sigmoid's — so with
// the scalar kernels a whole training step is bitwise the composition.

/// The parent's grad as an accumulation buffer, zero-filled on first touch.
/// Adding into zeros turns a −0 entry into +0, exactly as summing the
/// unfused cell's four zero-padded slice gradients does.
double* GradBuffer(VarImpl* p) {
  if (p->grad.empty()) {
    p->grad = Tensor::Zeros(p->value.rows(), p->value.cols());
  }
  return p->grad.data().data();
}

/// The parent's grad for AccumGrad's adopt-or-add without the temporary:
/// allocated uninitialised when still empty, and `*fresh` then tells the
/// caller to store each entry rather than add it.
double* AdoptOrAddBuffer(VarImpl* p, bool* fresh) {
  *fresh = p->grad.empty();
  if (*fresh) p->grad = Tensor::Uninitialized(p->value.rows(), p->value.cols());
  return p->grad.data().data();
}

void LstmCellBackward(VarImpl& self) {
  VarImpl* gates = self.parents[0];
  VarImpl* c_prev = self.parents[1];
  const int rows = self.value.rows();
  const int h = self.value.cols();
  const double* dc = self.grad.data().data();
  const double* cp = c_prev->value.data().data();
  double* dg = gates->requires_grad ? GradBuffer(gates) : nullptr;
  bool fresh = false;
  double* dcp =
      c_prev->requires_grad ? AdoptOrAddBuffer(c_prev, &fresh) : nullptr;
  for (int r = 0; r < rows; ++r) {
    const size_t row = static_cast<size_t>(r) * h;
    const double* a = self.saved.data().data() + 4 * row;  // [i f g o]
    for (int j = 0; j < h; ++j) {
      const double d = dc[row + j];
      const double i = a[j], f = a[h + j], g = a[2 * h + j];
      if (dg != nullptr) {
        double* dgr = dg + 4 * row;
        dgr[j] += (d * g) * (i * (1.0 - i));
        dgr[h + j] += (d * cp[row + j]) * (f * (1.0 - f));
        dgr[2 * h + j] += (d * i) * (1.0 - g * g);
      }
      if (dcp != nullptr) {
        dcp[row + j] = fresh ? d * f : dcp[row + j] + d * f;
      }
    }
  }
}

void LstmHiddenBackward(VarImpl& self) {
  VarImpl* gates = self.parents[0];
  VarImpl* c = self.parents[1];
  const int rows = self.value.rows();
  const int h = self.value.cols();
  const double* t = self.saved.data().data();
  const double* dh = self.grad.data().data();
  double* dg = gates->requires_grad ? GradBuffer(gates) : nullptr;
  bool fresh = false;
  double* dc = c->requires_grad ? AdoptOrAddBuffer(c, &fresh) : nullptr;
  for (int r = 0; r < rows; ++r) {
    const size_t row = static_cast<size_t>(r) * h;
    const double* o = c->saved.data().data() + 4 * row + 3 * h;
    for (int j = 0; j < h; ++j) {
      const double d = dh[row + j], tj = t[row + j];
      if (dg != nullptr) {
        dg[4 * row + 3 * h + j] += (d * tj) * (o[j] * (1.0 - o[j]));
      }
      if (dc != nullptr) {
        const double v = (d * o[j]) * (1.0 - tj * tj);
        dc[row + j] = fresh ? v : dc[row + j] + v;
      }
    }
  }
}

/// Gives `t` the shape rows × cols, keeping its buffer when it already has
/// it: a replayed cell node writes into the tensors it filled last time, so
/// steady-state replay takes nothing from the tensor pool for it.
double* Reuse(Tensor& t, int rows, int cols) {
  if (t.rows() != rows || t.cols() != cols) {
    t = Tensor::Uninitialized(rows, cols);
  }
  return t.data().data();
}

/// c and the gate activations from the parents' values, into `self`.
void RunLstmCell(const Tensor& gates, const Tensor& c_prev, VarImpl& self) {
  const int rows = c_prev.rows(), h = c_prev.cols();
  HEAD_PROF_OP("nn.LstmCell", rows, h, 0, 0, 0);
  kernels::LstmCell(rows, h, gates.data().data(), c_prev.data().data(),
                    Reuse(self.saved, rows, 4 * h), Reuse(self.value, rows, h));
}

/// h and tanh(c) from the c node, into `self`.
void RunLstmHidden(const VarImpl& c_node, VarImpl& self) {
  const int rows = c_node.value.rows(), h = c_node.value.cols();
  HEAD_PROF_OP("nn.LstmHidden", rows, h, 0, 0, 0);
  kernels::LstmHidden(rows, h, c_node.saved.data().data(),
                      c_node.value.data().data(), Reuse(self.saved, rows, h),
                      Reuse(self.value, rows, h));
}

void LstmCellForward(VarImpl& self) {
  RunLstmCell(self.parents[0]->value, self.parents[1]->value, self);
}

void LstmHiddenForward(VarImpl& self) { RunLstmHidden(*self.parents[1], self); }

}  // namespace

LstmCellVars LstmCellStep(const Var& gates, const Var& c_prev) {
  const int rows = c_prev.value().rows(), h = c_prev.value().cols();
  HEAD_CHECK_EQ(gates.value().rows(), rows);
  HEAD_CHECK_EQ(gates.value().cols(), 4 * h);
  // The nodes are made first and filled in place, so the eager and the
  // replay forward are one function.
  LstmCellVars out;
  out.c = MakeResult("nn.LstmCell", Tensor(), {&gates, &c_prev},
                     LstmCellBackward, LstmCellForward);
  RunLstmCell(gates.value(), c_prev.value(), *out.c.node());
  out.h = MakeResult("nn.LstmHidden", Tensor(), {&gates, &out.c},
                     LstmHiddenBackward, LstmHiddenForward);
  RunLstmHidden(*out.c.node(), *out.h.node());
  return out;
}

Var Add(const Var& a, const Var& b) {
  HEAD_PROF_OP("nn.Add", a.value().rows(), a.value().cols(), 0,
               int64_t{a.value().size()}, int64_t{24} * a.value().size());
  Tensor out = Add(a.value(), b.value());
  return MakeResult("nn.Add", std::move(out), {&a, &b}, AddBackward,
                    AddForward);
}

Var Sub(const Var& a, const Var& b) {
  HEAD_PROF_OP("nn.Sub", a.value().rows(), a.value().cols(), 0,
               int64_t{a.value().size()}, int64_t{24} * a.value().size());
  Tensor out = Sub(a.value(), b.value());
  return MakeResult("nn.Sub", std::move(out), {&a, &b}, SubBackward,
                    SubForward);
}

Var Mul(const Var& a, const Var& b) {
  HEAD_PROF_OP("nn.Mul", a.value().rows(), a.value().cols(), 0,
               int64_t{a.value().size()}, int64_t{24} * a.value().size());
  Tensor out = Mul(a.value(), b.value());
  return MakeResult("nn.Mul", std::move(out), {&a, &b}, MulBackward,
                    MulForward);
}

Var Scale(const Var& a, double s) {
  HEAD_PROF_OP("nn.Scale", a.value().rows(), a.value().cols(), 0,
               int64_t{a.value().size()}, int64_t{16} * a.value().size());
  Tensor out = Scale(a.value(), s);
  Var result = MakeResult("nn.Scale", std::move(out), {&a}, ScaleBackward,
                          ScaleForward);
  result.node()->aux_d = s;
  return result;
}

Var AddScalar(const Var& a, double s) {
  HEAD_PROF_OP("nn.AddScalar", a.value().rows(), a.value().cols(), 0,
               int64_t{a.value().size()}, int64_t{16} * a.value().size());
  Tensor out = a.value();
  for (int i = 0; i < out.size(); ++i) out[i] += s;
  Var result = MakeResult("nn.AddScalar", std::move(out), {&a},
                          PassThroughBackward, AddScalarForward);
  result.node()->aux_d = s;
  return result;
}

Var AddRowBroadcast(const Var& a, const Var& row) {
  HEAD_PROF_OP("nn.AddRowBroadcast", a.value().rows(), a.value().cols(), 0,
               int64_t{a.value().size()}, int64_t{24} * a.value().size());
  Tensor out = AddRowBroadcast(a.value(), row.value());
  return MakeResult("nn.AddRowBroadcast", std::move(out), {&a, &row},
                    AddRowBroadcastBackward, AddRowBroadcastForward);
}

namespace {

/// Element-wise backward: g = dL/dout ⊙ DFn(x, y) with x the input value
/// and y the op's output value. Instantiated per op with a plain function,
/// so the recorded backward stays a capture-free function pointer.
template <double (*DFn)(double x, double y)>
void UnaryBackward(VarImpl& self) {
  VarImpl* a = self.parents[0];
  Tensor g(self.grad.rows(), self.grad.cols());
  for (int i = 0; i < g.size(); ++i) {
    g[i] = self.grad[i] * DFn(a->value[i], self.value[i]);
  }
  a->AccumGrad(std::move(g));
}

void LeakyReluBackward(VarImpl& self) {
  VarImpl* a = self.parents[0];
  const double negative_slope = self.aux_d;
  Tensor g(self.grad.rows(), self.grad.cols());
  for (int i = 0; i < g.size(); ++i) {
    g[i] = self.grad[i] * (a->value[i] > 0.0 ? 1.0 : negative_slope);
  }
  a->AccumGrad(std::move(g));
}

// Scalar forward functions shared by the eager op and its plan-replay
// function — one definition, so the two paths cannot drift.
double ReluF(double x) { return x > 0.0 ? x : 0.0; }
double TanhF(double x) { return std::tanh(x); }
double SigmoidF(double x) { return 1.0 / (1.0 + std::exp(-x)); }
double SquareF(double x) { return x * x; }

template <double (*Fwd)(double)>
void UnaryForward(VarImpl& self) {
  const Tensor& a = self.parents[0]->value;
  HEAD_PROF_OP(self.op_name, a.rows(), a.cols(), 0, int64_t{a.size()},
               int64_t{16} * a.size());
  Tensor out = a;
  for (int i = 0; i < out.size(); ++i) out[i] = Fwd(out[i]);
  self.value = std::move(out);
}

void LeakyReluForward(VarImpl& self) {
  const Tensor& a = self.parents[0]->value;
  HEAD_PROF_OP("nn.LeakyRelu", a.rows(), a.cols(), 0, int64_t{a.size()},
               int64_t{16} * a.size());
  const double negative_slope = self.aux_d;
  Tensor out = a;
  for (int i = 0; i < out.size(); ++i) {
    out[i] = out[i] > 0.0 ? out[i] : negative_slope * out[i];
  }
  self.value = std::move(out);
}

template <typename FwdFn>
Var UnaryElementwise(const char* op, const Var& a, FwdFn fwd,
                     void (*backward)(VarImpl&), void (*forward)(VarImpl&)) {
  HEAD_PROF_OP(op, a.value().rows(), a.value().cols(), 0,
               int64_t{a.value().size()}, int64_t{16} * a.value().size());
  Tensor out = a.value();
  for (int i = 0; i < out.size(); ++i) out[i] = fwd(out[i]);
  return MakeResult(op, std::move(out), {&a}, backward, forward);
}

double ReluD(double x, double /*y*/) { return x > 0.0 ? 1.0 : 0.0; }
double TanhD(double /*x*/, double y) { return 1.0 - y * y; }
double SigmoidD(double /*x*/, double y) { return y * (1.0 - y); }
double SquareD(double x, double /*y*/) { return 2.0 * x; }

}  // namespace

Var Relu(const Var& a) {
  return UnaryElementwise("nn.Relu", a, ReluF, UnaryBackward<ReluD>,
                          UnaryForward<ReluF>);
}

Var LeakyRelu(const Var& a, double negative_slope) {
  Var result = UnaryElementwise(
      "nn.LeakyRelu", a,
      [negative_slope](double x) { return x > 0.0 ? x : negative_slope * x; },
      LeakyReluBackward, LeakyReluForward);
  result.node()->aux_d = negative_slope;
  return result;
}

Var Tanh(const Var& a) {
  return UnaryElementwise("nn.Tanh", a, TanhF, UnaryBackward<TanhD>,
                          UnaryForward<TanhF>);
}

Var Sigmoid(const Var& a) {
  return UnaryElementwise("nn.Sigmoid", a, SigmoidF, UnaryBackward<SigmoidD>,
                          UnaryForward<SigmoidF>);
}

namespace {

void SoftmaxRowsBackward(VarImpl& self) {
  // dx = y ⊙ (dy − rowsum(dy ⊙ y))
  Tensor g(self.grad.rows(), self.grad.cols());
  for (int r = 0; r < g.rows(); ++r) {
    double dot = 0.0;
    for (int c = 0; c < g.cols(); ++c) {
      dot += self.grad.At(r, c) * self.value.At(r, c);
    }
    for (int c = 0; c < g.cols(); ++c) {
      g.At(r, c) = self.value.At(r, c) * (self.grad.At(r, c) - dot);
    }
  }
  self.parents[0]->AccumGrad(std::move(g));
}

void SoftmaxRowsForward(VarImpl& self) {
  const Tensor& a = self.parents[0]->value;
  HEAD_PROF_OP("nn.SoftmaxRows", a.rows(), a.cols(), 0, int64_t{5} * a.size(),
               int64_t{16} * a.size());
  Tensor out = a;
  for (int r = 0; r < out.rows(); ++r) {
    double mx = out.At(r, 0);
    for (int c = 1; c < out.cols(); ++c) mx = std::max(mx, out.At(r, c));
    double sum = 0.0;
    for (int c = 0; c < out.cols(); ++c) {
      out.At(r, c) = std::exp(out.At(r, c) - mx);
      sum += out.At(r, c);
    }
    for (int c = 0; c < out.cols(); ++c) out.At(r, c) /= sum;
  }
  self.value = std::move(out);
}

}  // namespace

Var SoftmaxRows(const Var& a) {
  HEAD_PROF_OP("nn.SoftmaxRows", a.value().rows(), a.value().cols(), 0,
               int64_t{5} * a.value().size(),
               int64_t{16} * a.value().size());
  Tensor out = a.value();
  for (int r = 0; r < out.rows(); ++r) {
    double mx = out.At(r, 0);
    for (int c = 1; c < out.cols(); ++c) mx = std::max(mx, out.At(r, c));
    double sum = 0.0;
    for (int c = 0; c < out.cols(); ++c) {
      out.At(r, c) = std::exp(out.At(r, c) - mx);
      sum += out.At(r, c);
    }
    for (int c = 0; c < out.cols(); ++c) out.At(r, c) /= sum;
  }
  return MakeResult("nn.SoftmaxRows", std::move(out), {&a},
                    SoftmaxRowsBackward, SoftmaxRowsForward);
}

namespace {

void ConcatColsBackward(VarImpl& self) {
  int off = 0;
  for (VarImpl* pi : self.parents) {
    const int pc = pi->value.cols();
    Tensor g(pi->value.rows(), pc);
    for (int r = 0; r < g.rows(); ++r) {
      for (int c = 0; c < pc; ++c) g.At(r, c) = self.grad.At(r, off + c);
    }
    pi->AccumGrad(std::move(g));
    off += pc;
  }
}

void ConcatRowsBackward(VarImpl& self) {
  int off = 0;
  for (VarImpl* pi : self.parents) {
    const int pr = pi->value.rows();
    Tensor g(pr, pi->value.cols());
    for (int r = 0; r < pr; ++r) {
      for (int c = 0; c < g.cols(); ++c) g.At(r, c) = self.grad.At(off + r, c);
    }
    pi->AccumGrad(std::move(g));
    off += pr;
  }
}

void ConcatColsForward(VarImpl& self) {
  const int rows = self.value.rows();
  const int cols = self.value.cols();
  HEAD_PROF_OP("nn.ConcatCols", rows, cols, 0, 0, int64_t{16} * rows * cols);
  Tensor out = Tensor::Uninitialized(rows, cols);
  int off = 0;
  for (VarImpl* pi : self.parents) {
    const Tensor& pv = pi->value;
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < pv.cols(); ++c) out.At(r, off + c) = pv.At(r, c);
    }
    off += pv.cols();
  }
  self.value = std::move(out);
}

void ConcatRowsForward(VarImpl& self) {
  const int rows = self.value.rows();
  const int cols = self.value.cols();
  HEAD_PROF_OP("nn.ConcatRows", rows, cols, 0, 0, int64_t{16} * rows * cols);
  Tensor out = Tensor::Uninitialized(rows, cols);
  int off = 0;
  for (VarImpl* pi : self.parents) {
    const Tensor& pv = pi->value;
    for (int r = 0; r < pv.rows(); ++r) {
      for (int c = 0; c < cols; ++c) out.At(off + r, c) = pv.At(r, c);
    }
    off += pv.rows();
  }
  self.value = std::move(out);
}

}  // namespace

Var ConcatCols(const std::vector<Var>& parts) {
  HEAD_CHECK(!parts.empty());
  const int rows = parts[0].value().rows();
  int cols = 0;
  for (const Var& p : parts) {
    HEAD_CHECK_EQ(p.value().rows(), rows);
    cols += p.value().cols();
  }
  HEAD_PROF_OP("nn.ConcatCols", rows, cols, 0, 0,
               int64_t{16} * rows * cols);
  Tensor out = Tensor::Uninitialized(rows, cols);
  int off = 0;
  for (const Var& p : parts) {
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < p.value().cols(); ++c) {
        out.At(r, off + c) = p.value().At(r, c);
      }
    }
    off += p.value().cols();
  }
  return MakeResult("nn.ConcatCols", std::move(out), parts,
                    ConcatColsBackward, ConcatColsForward);
}

Var ConcatRows(const std::vector<Var>& parts) {
  HEAD_CHECK(!parts.empty());
  const int cols = parts[0].value().cols();
  int rows = 0;
  for (const Var& p : parts) {
    HEAD_CHECK_EQ(p.value().cols(), cols);
    rows += p.value().rows();
  }
  HEAD_PROF_OP("nn.ConcatRows", rows, cols, 0, 0,
               int64_t{16} * rows * cols);
  Tensor out = Tensor::Uninitialized(rows, cols);
  int off = 0;
  for (const Var& p : parts) {
    for (int r = 0; r < p.value().rows(); ++r) {
      for (int c = 0; c < cols; ++c) out.At(off + r, c) = p.value().At(r, c);
    }
    off += p.value().rows();
  }
  return MakeResult("nn.ConcatRows", std::move(out), parts,
                    ConcatRowsBackward, ConcatRowsForward);
}

namespace {

void SliceColsBackward(VarImpl& self) {
  VarImpl* a = self.parents[0];
  const int c0 = self.aux_i;
  Tensor g = Tensor::Zeros(a->value.rows(), a->value.cols());
  for (int r = 0; r < self.grad.rows(); ++r) {
    for (int c = 0; c < self.grad.cols(); ++c) {
      g.At(r, c0 + c) = self.grad.At(r, c);
    }
  }
  a->AccumGrad(std::move(g));
}

void SliceRowsBackward(VarImpl& self) {
  VarImpl* a = self.parents[0];
  const int r0 = self.aux_i;
  Tensor g = Tensor::Zeros(a->value.rows(), a->value.cols());
  for (int r = 0; r < self.grad.rows(); ++r) {
    for (int c = 0; c < self.grad.cols(); ++c) {
      g.At(r0 + r, c) = self.grad.At(r, c);
    }
  }
  a->AccumGrad(std::move(g));
}

void ReshapeBackward(VarImpl& self) {
  VarImpl* a = self.parents[0];
  Tensor g(a->value.rows(), a->value.cols());
  for (int i = 0; i < g.size(); ++i) g[i] = self.grad[i];
  a->AccumGrad(std::move(g));
}

void SumBackward(VarImpl& self) {
  VarImpl* a = self.parents[0];
  a->AccumGrad(Tensor::Full(a->value.rows(), a->value.cols(), self.grad[0]));
}

void SliceColsForward(VarImpl& self) {
  const Tensor& av = self.parents[0]->value;
  const int c0 = self.aux_i;
  Tensor out = Tensor::Uninitialized(self.value.rows(), self.value.cols());
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) out.At(r, c) = av.At(r, c0 + c);
  }
  self.value = std::move(out);
}

void SliceRowsForward(VarImpl& self) {
  const Tensor& av = self.parents[0]->value;
  const int r0 = self.aux_i;
  Tensor out = Tensor::Uninitialized(self.value.rows(), self.value.cols());
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) out.At(r, c) = av.At(r0 + r, c);
  }
  self.value = std::move(out);
}

void ReshapeForward(VarImpl& self) {
  const Tensor& av = self.parents[0]->value;
  Tensor out = Tensor::Uninitialized(self.value.rows(), self.value.cols());
  for (int i = 0; i < out.size(); ++i) out[i] = av[i];
  self.value = std::move(out);
}

void SumForward(VarImpl& self) {
  const Tensor& av = self.parents[0]->value;
  HEAD_PROF_OP("nn.Sum", av.rows(), av.cols(), 0, int64_t{av.size()},
               int64_t{8} * av.size());
  double s = 0.0;
  for (int i = 0; i < av.size(); ++i) s += av[i];
  self.value = Tensor::Full(1, 1, s);
}

}  // namespace

Var SliceCols(const Var& a, int c0, int c1) {
  HEAD_CHECK(0 <= c0 && c0 < c1 && c1 <= a.value().cols());
  Tensor out = Tensor::Uninitialized(a.value().rows(), c1 - c0);
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) out.At(r, c) = a.value().At(r, c0 + c);
  }
  Var result = MakeResult("nn.SliceCols", std::move(out), {&a},
                          SliceColsBackward, SliceColsForward);
  result.node()->aux_i = c0;
  return result;
}

Var SliceRows(const Var& a, int r0, int r1) {
  HEAD_CHECK(0 <= r0 && r0 < r1 && r1 <= a.value().rows());
  Tensor out = Tensor::Uninitialized(r1 - r0, a.value().cols());
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) out.At(r, c) = a.value().At(r0 + r, c);
  }
  Var result = MakeResult("nn.SliceRows", std::move(out), {&a},
                          SliceRowsBackward, SliceRowsForward);
  result.node()->aux_i = r0;
  return result;
}

Var Reshape(const Var& a, int rows, int cols) {
  HEAD_CHECK_EQ(a.value().size(), rows * cols);
  // Element copy into a pooled buffer (constructing from a.value().data()
  // would copy the vector outside the pool).
  Tensor out = Tensor::Uninitialized(rows, cols);
  const Tensor& av = a.value();
  for (int i = 0; i < out.size(); ++i) out[i] = av[i];
  return MakeResult("nn.Reshape", std::move(out), {&a}, ReshapeBackward,
                    ReshapeForward);
}

Var Sum(const Var& a) {
  HEAD_PROF_OP("nn.Sum", a.value().rows(), a.value().cols(), 0,
               int64_t{a.value().size()}, int64_t{8} * a.value().size());
  double s = 0.0;
  for (int i = 0; i < a.value().size(); ++i) s += a.value()[i];
  return MakeResult("nn.Sum", Tensor::Full(1, 1, s), {&a}, SumBackward,
                    SumForward);
}

Var Mean(const Var& a) {
  HEAD_CHECK_GT(a.value().size(), 0);
  return Scale(Sum(a), 1.0 / a.value().size());
}

Var Square(const Var& a) {
  return UnaryElementwise("nn.Square", a, SquareF, UnaryBackward<SquareD>,
                          UnaryForward<SquareF>);
}

Var MseLoss(const Var& pred, const Var& target) {
  HEAD_CHECK_EQ(pred.value().rows(), target.value().rows());
  HEAD_CHECK_EQ(pred.value().cols(), target.value().cols());
  return Mean(Square(Sub(pred, target)));
}

namespace {

void GatherRowsBackward(VarImpl& self) {
  VarImpl* a = self.parents[0];
  Tensor g = Tensor::Zeros(a->value.rows(), a->value.cols());
  const int cols = g.cols();
  const std::vector<int>& rows = self.indices;
  for (size_t i = 0; i < rows.size(); ++i) {
    const double* src = self.grad.data().data() + i * cols;
    double* dst = g.data().data() + static_cast<size_t>(rows[i]) * cols;
    for (int c = 0; c < cols; ++c) dst[c] += src[c];
  }
  a->AccumGrad(std::move(g));
}

void SelectColumnPerRowBackward(VarImpl& self) {
  VarImpl* a = self.parents[0];
  Tensor g = Tensor::Zeros(a->value.rows(), a->value.cols());
  const std::vector<int>& cols = self.indices;
  for (int r = 0; r < g.rows(); ++r) {
    g.At(r, cols[r]) = self.grad[r];
  }
  a->AccumGrad(std::move(g));
}

void RowwiseMaxBackward(VarImpl& self) {
  VarImpl* a = self.parents[0];
  Tensor g = Tensor::Zeros(a->value.rows(), a->value.cols());
  const std::vector<int>& argmax = self.indices;
  for (int r = 0; r < g.rows(); ++r) {
    g.At(r, argmax[r]) = self.grad[r];
  }
  a->AccumGrad(std::move(g));
}

void SumRowsBackward(VarImpl& self) {
  VarImpl* a = self.parents[0];
  Tensor g(a->value.rows(), a->value.cols());
  const int cols = g.cols();
  const double* src = self.grad.data().data();
  for (int r = 0; r < g.rows(); ++r) {
    double* dst = g.data().data() + static_cast<size_t>(r) * cols;
    for (int c = 0; c < cols; ++c) dst[c] = src[c];
  }
  a->AccumGrad(std::move(g));
}

void ScaleRowsBackward(VarImpl& self) {
  VarImpl* a = self.parents[0];
  VarImpl* s = self.parents[1];
  const int rows = a->value.rows();
  const int cols = a->value.cols();
  Tensor ga(rows, cols);
  Tensor gs(rows, 1);
  for (int r = 0; r < rows; ++r) {
    const double sv = s->value[r];
    const double* gout = self.grad.data().data() + static_cast<size_t>(r) * cols;
    const double* arow = a->value.data().data() + static_cast<size_t>(r) * cols;
    double* garow = ga.data().data() + static_cast<size_t>(r) * cols;
    double dot = 0.0;
    for (int c = 0; c < cols; ++c) {
      garow[c] = gout[c] * sv;
      dot += gout[c] * arow[c];
    }
    gs[r] = dot;
  }
  a->AccumGrad(std::move(ga));
  s->AccumGrad(std::move(gs));
}

void SumRowGroupsBackward(VarImpl& self) {
  VarImpl* a = self.parents[0];
  const int group_size = self.aux_i;
  const int cols = a->value.cols();
  Tensor g(a->value.rows(), cols);
  for (int r = 0; r < g.rows(); ++r) {
    const double* src =
        self.grad.data().data() + static_cast<size_t>(r / group_size) * cols;
    double* dst = g.data().data() + static_cast<size_t>(r) * cols;
    for (int c = 0; c < cols; ++c) dst[c] = src[c];
  }
  a->AccumGrad(std::move(g));
}

void GroupPairSumBackward(VarImpl& self) {
  VarImpl* s = self.parents[0];
  const int n = self.aux_i;
  Tensor g = Tensor::Zeros(s->value.rows(), 2);
  for (int gi = 0; gi < self.grad.rows(); ++gi) {
    double first = 0.0;
    for (int j = 0; j < n; ++j) {
      const double d = self.grad.At(gi, j);
      g.At(gi * n + j, 1) = d;
      first += d;
    }
    g.At(gi * n, 0) = first;
  }
  s->AccumGrad(std::move(g));
}

/// out[g, j] = s[g·n, 0] + s[g·n + j, 1], into `out` (G × n).
void RunGroupPairSum(const Tensor& s, int n, Tensor& out) {
  HEAD_PROF_OP("nn.GroupPairSum", out.rows(), n, 0, int64_t{out.size()},
               int64_t{24} * out.size());
  for (int gi = 0; gi < out.rows(); ++gi) {
    const double first = s.At(gi * n, 0);
    for (int j = 0; j < n; ++j) out.At(gi, j) = first + s.At(gi * n + j, 1);
  }
}

void GroupPairSumForward(VarImpl& self) {
  Tensor out = Tensor::Uninitialized(self.value.rows(), self.value.cols());
  RunGroupPairSum(self.parents[0]->value, self.aux_i, out);
  self.value = std::move(out);
}

void GatherRowsForward(VarImpl& self) {
  const Tensor& av = self.parents[0]->value;
  const int cols = av.cols();
  const std::vector<int>& rows = self.indices;  // frozen at capture
  HEAD_PROF_OP("nn.GatherRows", static_cast<int>(rows.size()), cols, 0, 0,
               int64_t{16} * static_cast<int64_t>(rows.size()) * cols);
  Tensor out = Tensor::Uninitialized(static_cast<int>(rows.size()), cols);
  for (size_t i = 0; i < rows.size(); ++i) {
    const double* src =
        av.data().data() + static_cast<size_t>(rows[i]) * cols;
    double* dst = out.data().data() + i * cols;
    for (int c = 0; c < cols; ++c) dst[c] = src[c];
  }
  self.value = std::move(out);
}

void SelectColumnPerRowForward(VarImpl& self) {
  const Tensor& av = self.parents[0]->value;
  const std::vector<int>& cols = self.indices;  // re-fed per replay
  HEAD_PROF_OP("nn.SelectColumnPerRow", av.rows(), av.cols(), 0, 0,
               int64_t{16} * av.rows());
  Tensor out = Tensor::Uninitialized(av.rows(), 1);
  for (int r = 0; r < av.rows(); ++r) {
    HEAD_CHECK(cols[r] >= 0 && cols[r] < av.cols());
    out[r] = av.At(r, cols[r]);
  }
  self.value = std::move(out);
}

void RowwiseMaxForward(VarImpl& self) {
  const Tensor& av = self.parents[0]->value;
  HEAD_PROF_OP("nn.RowwiseMax", av.rows(), av.cols(), 0, 0,
               int64_t{8} * (av.size() + av.rows()));
  Tensor out = Tensor::Uninitialized(av.rows(), 1);
  self.indices.assign(av.rows(), 0);  // argmax recomputed for backward
  for (int r = 0; r < av.rows(); ++r) {
    int best = 0;
    for (int c = 1; c < av.cols(); ++c) {
      if (av.At(r, c) > av.At(r, best)) best = c;
    }
    self.indices[r] = best;
    out[r] = av.At(r, best);
  }
  self.value = std::move(out);
}

void SumRowsForward(VarImpl& self) {
  const Tensor& a = self.parents[0]->value;
  HEAD_PROF_OP("nn.SumRows", a.rows(), a.cols(), 0, int64_t{a.size()},
               int64_t{8} * a.size());
  self.value = SumRows(a);
}

void ScaleRowsForward(VarImpl& self) {
  const Tensor& av = self.parents[0]->value;
  const Tensor& sv = self.parents[1]->value;
  HEAD_PROF_OP("nn.ScaleRows", av.rows(), av.cols(), 0, int64_t{av.size()},
               int64_t{24} * av.size());
  const int cols = av.cols();
  Tensor out = Tensor::Uninitialized(av.rows(), cols);
  for (int r = 0; r < av.rows(); ++r) {
    const double s = sv[r];
    const double* src = av.data().data() + static_cast<size_t>(r) * cols;
    double* dst = out.data().data() + static_cast<size_t>(r) * cols;
    for (int c = 0; c < cols; ++c) dst[c] = src[c] * s;
  }
  self.value = std::move(out);
}

void SumRowGroupsForward(VarImpl& self) {
  const Tensor& av = self.parents[0]->value;
  const int group_size = self.aux_i;
  const int groups = av.rows() / group_size;
  const int cols = av.cols();
  HEAD_PROF_OP("nn.SumRowGroups", av.rows(), cols, 0, int64_t{av.size()},
               int64_t{16} * av.size());
  Tensor out(groups, cols);  // zero-initialized, matching the eager op
  for (int g = 0; g < groups; ++g) {
    double* dst = out.data().data() + static_cast<size_t>(g) * cols;
    for (int n = 0; n < group_size; ++n) {
      const double* src =
          av.data().data() + static_cast<size_t>(g * group_size + n) * cols;
      for (int c = 0; c < cols; ++c) dst[c] += src[c];
    }
  }
  self.value = std::move(out);
}

}  // namespace

Var GatherRows(const Var& a, std::vector<int> rows) {
  const Tensor& av = a.value();
  const int cols = av.cols();
  HEAD_PROF_OP("nn.GatherRows", static_cast<int>(rows.size()), cols, 0, 0,
               int64_t{16} * static_cast<int64_t>(rows.size()) * cols);
  Tensor out = Tensor::Uninitialized(static_cast<int>(rows.size()), cols);
  for (size_t i = 0; i < rows.size(); ++i) {
    const int r = rows[i];
    HEAD_CHECK(r >= 0 && r < av.rows());
    const double* src = av.data().data() + static_cast<size_t>(r) * cols;
    double* dst = out.data().data() + i * cols;
    for (int c = 0; c < cols; ++c) dst[c] = src[c];
  }
  Var result = MakeResult("nn.GatherRows", std::move(out), {&a},
                          GatherRowsBackward, GatherRowsForward);
  result.node()->indices = std::move(rows);
  return result;
}

Var SelectColumnPerRow(const Var& a, std::vector<int> cols) {
  const Tensor& av = a.value();
  HEAD_CHECK_EQ(static_cast<int>(cols.size()), av.rows());
  HEAD_PROF_OP("nn.SelectColumnPerRow", av.rows(), av.cols(), 0, 0,
               int64_t{16} * av.rows());
  Tensor out = Tensor::Uninitialized(av.rows(), 1);
  for (int r = 0; r < av.rows(); ++r) {
    HEAD_CHECK(cols[r] >= 0 && cols[r] < av.cols());
    out[r] = av.At(r, cols[r]);
  }
  Var result = MakeResult("nn.SelectColumnPerRow", std::move(out), {&a},
                          SelectColumnPerRowBackward,
                          SelectColumnPerRowForward);
  result.node()->indices = std::move(cols);
  // The selected columns change per step (sampled behaviors): replays feed
  // them through the plan's index slots.
  if (plan_internal::Active()) plan_internal::RegisterIndexSlot(result.node());
  return result;
}

Var RowwiseMax(const Var& a) {
  const Tensor& av = a.value();
  HEAD_CHECK_GT(av.cols(), 0);
  HEAD_PROF_OP("nn.RowwiseMax", av.rows(), av.cols(), 0, 0,
               int64_t{8} * (av.size() + av.rows()));
  Var result = MakeResult("nn.RowwiseMax", Tensor::Uninitialized(av.rows(), 1), {&a},
                          RowwiseMaxBackward, RowwiseMaxForward);
  VarImpl* node = result.node();
  // The argmax list reuses the node's index capacity across steps instead of
  // allocating a fresh vector per call.
  node->indices.assign(av.rows(), 0);
  Tensor& out = node->value;
  for (int r = 0; r < av.rows(); ++r) {
    int best = 0;
    for (int c = 1; c < av.cols(); ++c) {
      if (av.At(r, c) > av.At(r, best)) best = c;
    }
    node->indices[r] = best;
    out[r] = av.At(r, best);
  }
  return result;
}

Var SumRows(const Var& a) {
  HEAD_PROF_OP("nn.SumRows", a.value().rows(), a.value().cols(), 0,
               int64_t{a.value().size()}, int64_t{8} * a.value().size());
  Tensor out = SumRows(a.value());
  return MakeResult("nn.SumRows", std::move(out), {&a}, SumRowsBackward,
                    SumRowsForward);
}

Var ScaleRows(const Var& a, const Var& scale) {
  const Tensor& av = a.value();
  const Tensor& sv = scale.value();
  HEAD_CHECK_EQ(sv.rows(), av.rows());
  HEAD_CHECK_EQ(sv.cols(), 1);
  HEAD_PROF_OP("nn.ScaleRows", av.rows(), av.cols(), 0,
               int64_t{av.size()}, int64_t{24} * av.size());
  Tensor out = Tensor::Uninitialized(av.rows(), av.cols());
  const int cols = av.cols();
  for (int r = 0; r < av.rows(); ++r) {
    const double s = sv[r];
    const double* src = av.data().data() + static_cast<size_t>(r) * cols;
    double* dst = out.data().data() + static_cast<size_t>(r) * cols;
    for (int c = 0; c < cols; ++c) dst[c] = src[c] * s;
  }
  return MakeResult("nn.ScaleRows", std::move(out), {&a, &scale},
                    ScaleRowsBackward, ScaleRowsForward);
}

Var SumRowGroups(const Var& a, int group_size) {
  const Tensor& av = a.value();
  HEAD_CHECK_GT(group_size, 0);
  HEAD_CHECK_EQ(av.rows() % group_size, 0);
  const int groups = av.rows() / group_size;
  const int cols = av.cols();
  HEAD_PROF_OP("nn.SumRowGroups", av.rows(), cols, 0, int64_t{av.size()},
               int64_t{16} * av.size());
  Tensor out(groups, cols);
  for (int g = 0; g < groups; ++g) {
    double* dst = out.data().data() + static_cast<size_t>(g) * cols;
    for (int n = 0; n < group_size; ++n) {
      const double* src =
          av.data().data() + static_cast<size_t>(g * group_size + n) * cols;
      for (int c = 0; c < cols; ++c) dst[c] += src[c];
    }
  }
  Var result = MakeResult("nn.SumRowGroups", std::move(out), {&a},
                          SumRowGroupsBackward, SumRowGroupsForward);
  result.node()->aux_i = group_size;
  return result;
}

Var GroupPairSum(const Var& s, int group_size) {
  const Tensor& sv = s.value();
  HEAD_CHECK_GT(group_size, 0);
  HEAD_CHECK_EQ(sv.cols(), 2);
  HEAD_CHECK_EQ(sv.rows() % group_size, 0);
  Tensor out = Tensor::Uninitialized(sv.rows() / group_size, group_size);
  RunGroupPairSum(sv, group_size, out);
  Var result = MakeResult("nn.GroupPairSum", std::move(out), {&s},
                          GroupPairSumBackward, GroupPairSumForward);
  result.node()->aux_i = group_size;
  return result;
}

}  // namespace head::nn
