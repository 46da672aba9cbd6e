#include "nn/plan.h"

#include <atomic>
#include <cstdlib>
#include <utility>

#include "common/check.h"
#include "obs/profiler.h"

namespace head::nn {

using internal::VarImpl;

namespace {

std::atomic<uint64_t> g_plan_serial{0};

/// Live ScopedPlansOff count; plans are off while it is non-zero.
std::atomic<int> g_plans_off{0};

/// The thread's live capture, if any. Ops in autograd.cc route node
/// allocation here via plan_internal::NewNode() while this is non-null.
thread_local ExecPlan* t_capture = nullptr;

}  // namespace

namespace plan_internal {

bool Active() { return t_capture != nullptr; }

VarImpl* NewNode() {
  ExecPlan* plan = t_capture;
  HEAD_CHECK(plan != nullptr);
  // deque: chunked storage, so already-captured node addresses never move
  // while later ops record them as parents.
  plan->nodes_.emplace_back();
  VarImpl* node = &plan->nodes_.back();
  plan->index_of_.emplace(node, static_cast<int>(plan->nodes_.size()) - 1);
  return node;  // default epoch 0: a persistent leaf to Var::alive()
}

void RecordBackward(VarImpl* root, const std::vector<VarImpl*>& order) {
  ExecPlan* plan = t_capture;
  HEAD_CHECK(plan != nullptr);
  // One Backward per captured step, and it must differentiate the captured
  // graph — a stray Backward over arena nodes mid-capture is a bug.
  HEAD_CHECK(plan->backward_order_.empty());
  const auto root_it = plan->index_of_.find(root);
  HEAD_CHECK(root_it != plan->index_of_.end());
  plan->backward_order_.reserve(order.size());
  for (VarImpl* node : order) {
    const auto it = plan->index_of_.find(node);
    // External leaves (Params) appear in the topo order but carry no
    // closure and no per-step state — nothing to replay for them.
    if (it == plan->index_of_.end()) continue;
    plan->backward_order_.push_back(it->second);
  }
  HEAD_CHECK(!plan->backward_order_.empty());
  HEAD_CHECK_EQ(plan->backward_order_.back(), root_it->second);
}

void RegisterIndexSlot(VarImpl* node) {
  ExecPlan* plan = t_capture;
  HEAD_CHECK(plan != nullptr);
  const auto it = plan->index_of_.find(node);
  HEAD_CHECK(it != plan->index_of_.end());
  plan->index_slots_.push_back(it->second);
}

/// One thread's private instantiation of a plan: the master nodes cloned,
/// internal parent edges rewired to the clones, external edges left on the
/// shared persistent Params (so replay reads live weights).
struct ReplayContext {
  /// Observes, never owns: a plan whose last owner is gone (a torn-down
  /// model) is freed at once, and its context is swept at this thread's
  /// next cache miss.
  std::weak_ptr<const ExecPlan> plan;
  std::vector<VarImpl> nodes;

  explicit ReplayContext(const ExecPlan& src)
      : plan(src.shared_from_this()) {
    nodes.reserve(src.nodes_.size());
    for (const VarImpl& master : src.nodes_) {
      if (master.forward == nullptr) {
        // Leaves the replay actually reads: captured constants and input
        // slots. These keep their master values (slots are overwritten by
        // Replay's feed, but their shapes seed the input checks).
        nodes.push_back(master);
        continue;
      }
      // Recomputed nodes: every replay overwrites `value` before any read,
      // so the clone carries geometry only — forward fns like Concat/Slice/
      // Reshape size their output from value.rows()/cols(). Skipping the
      // content copy keeps first-replay cost near one eager step even for
      // wide training graphs.
      VarImpl& node = nodes.emplace_back();
      node.value = Tensor::Uninitialized(master.value.rows(),
                                         master.value.cols());
      // Saved activations get geometry too: their forward fills them in
      // place, so the first replay draws nothing extra from the pool.
      if (!master.saved.empty()) {
        node.saved = Tensor::Uninitialized(master.saved.rows(),
                                           master.saved.cols());
      }
      node.requires_grad = master.requires_grad;
      node.backward = master.backward;
      node.forward = master.forward;
      node.parents = master.parents;
      node.aux_d = master.aux_d;
      node.aux_i = master.aux_i;
      node.indices = master.indices;
      node.op_name = master.op_name;
      node.epoch = master.epoch;
    }
    for (VarImpl& node : nodes) {
      for (VarImpl*& parent : node.parents) {
        const auto it = src.index_of_.find(parent);
        if (it != src.index_of_.end()) parent = &nodes[it->second];
      }
    }
  }
};

}  // namespace plan_internal

namespace {

/// Replay contexts are cached per thread, keyed by plan serial (never
/// reused, so a dead plan's entry cannot alias a live one). Call sites cap
/// how many plans they create, so the map stays tiny; the cap here is a
/// backstop against unbounded growth when a process holds many live plans.
constexpr size_t kMaxContextsPerThread = 64;

thread_local std::unordered_map<uint64_t,
                                std::unique_ptr<plan_internal::ReplayContext>>
    t_contexts;

plan_internal::ReplayContext& ContextFor(const ExecPlan& plan) {
  const auto it = t_contexts.find(plan.serial());
  if (it != t_contexts.end()) return *it->second;
  // Miss: drop the clones of plans that died since (the hit path above
  // stays a single lookup).
  std::erase_if(t_contexts,
                [](const auto& entry) { return entry.second->plan.expired(); });
  if (t_contexts.size() >= kMaxContextsPerThread) t_contexts.clear();
  auto ctx = std::make_unique<plan_internal::ReplayContext>(plan);
  plan_internal::ReplayContext& ref = *ctx;
  t_contexts.emplace(plan.serial(), std::move(ctx));
  return ref;
}

}  // namespace

ExecPlan::~ExecPlan() = default;

std::vector<const Tensor*> ExecPlan::Replay(
    std::vector<Tensor> inputs,
    std::initializer_list<const std::vector<int>*> index_inputs) const {
  HEAD_CHECK_EQ(inputs.size(), input_slots_.size());
  HEAD_CHECK(index_inputs.size() == 0 ||
             index_inputs.size() == index_slots_.size());
  plan_internal::ReplayContext& ctx = ContextFor(*this);
  std::vector<VarImpl>& nodes = ctx.nodes;

  for (size_t i = 0; i < inputs.size(); ++i) {
    VarImpl& slot = nodes[input_slots_[i]];
    // Plans are shape-specialized; a mismatched feed means the call site
    // keyed its plan cache wrong.
    HEAD_CHECK_EQ(inputs[i].rows(), slot.value.rows());
    HEAD_CHECK_EQ(inputs[i].cols(), slot.value.cols());
    slot.value = std::move(inputs[i]);
  }
  {
    size_t j = 0;
    for (const std::vector<int>* idx : index_inputs) {
      VarImpl& slot = nodes[index_slots_[j++]];
      HEAD_CHECK_EQ(idx->size(), slot.indices.size());
      slot.indices.assign(idx->begin(), idx->end());
    }
  }

  // Forward: the creation-order walk IS the schedule — capture already
  // linearized the graph, so there is nothing to sort or allocate.
  for (VarImpl& node : nodes) {
    if (node.forward != nullptr) node.forward(node);
  }

  if (!backward_order_.empty()) {
    // Mirrors nn::Backward's replayed portion exactly: same seed, same
    // reverse order, same skip condition, same per-node attribution.
    HEAD_SCOPE("nn.backward");
    obs::ScopedProfPhase prof_phase(obs::ProfPhase::kBackward);
    nodes[backward_order_.back()].AccumGrad(Tensor::Full(1, 1, 1.0));
    for (auto it = backward_order_.rbegin(); it != backward_order_.rend();
         ++it) {
      VarImpl& node = nodes[*it];
      if (node.backward != nullptr && !node.grad.empty()) {
        HEAD_PROF_OP(node.op_name != nullptr ? node.op_name : "nn.op",
                     node.value.rows(), node.value.cols(), 0, 0, 0);
        node.backward(node);
      }
    }
    // Param grads persist for the optimizer; every plan-local grad is
    // dropped so the next replay accumulates from fresh-tape state (an
    // adopted first accumulation, never a stale AddScaled).
    for (VarImpl& node : nodes) {
      if (!node.grad.empty()) node.grad = Tensor();
    }
  }

  std::vector<const Tensor*> out;
  out.reserve(outputs_.size());
  for (const int idx : outputs_) out.push_back(&nodes[idx].value);
  return out;
}

PlanCapture::PlanCapture() {
  HEAD_CHECK(t_capture == nullptr);  // no nested captures
  plan_ = std::shared_ptr<ExecPlan>(new ExecPlan());
  t_capture = plan_.get();
}

PlanCapture::~PlanCapture() {
  if (t_capture == plan_.get()) t_capture = nullptr;
}

std::shared_ptr<const ExecPlan> PlanCapture::Finish(
    std::initializer_list<Var> outputs) {
  HEAD_CHECK(!finished_);
  HEAD_CHECK(t_capture == plan_.get());
  t_capture = nullptr;
  finished_ = true;
  ExecPlan& plan = *plan_;
  HEAD_CHECK(!plan.nodes_.empty());
  for (const Var& out : outputs) {
    HEAD_CHECK(out.defined());
    const auto it = plan.index_of_.find(out.node());
    HEAD_CHECK(it != plan.index_of_.end());  // outputs must be captured nodes
    plan.outputs_.push_back(it->second);
  }
  for (VarImpl& node : plan.nodes_) {
    for (VarImpl* parent : node.parents) {
      if (plan.index_of_.count(parent) != 0) continue;
      // An external parent must be a persistent leaf (epoch 0 — a Param):
      // its address and storage outlive the plan and replay reads its live
      // value. An arena node here would dangle after the next ResetTape.
      HEAD_CHECK_EQ(parent->epoch, 0u);
    }
    // Clones must start from fresh-tape state (capture's Backward already
    // cleared closure-owning nodes; this catches grad-receiving leaves).
    if (!node.grad.empty()) node.grad = Tensor();
  }
  plan.serial_ = g_plan_serial.fetch_add(1, std::memory_order_relaxed) + 1;
  return plan_;
}

Var PlanInput(Tensor value) {
  if (t_capture == nullptr) return Var::Constant(std::move(value));
  ExecPlan* plan = t_capture;
  VarImpl* node = plan_internal::NewNode();
  node->value = std::move(value);
  plan->input_slots_.push_back(plan->index_of_.at(node));
  return Var(node, 0);
}

bool PlansEnabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("HEAD_PLANS");
    return env == nullptr || env[0] == '\0' || env[0] != '0';
  }();
  return enabled && g_plans_off.load(std::memory_order_relaxed) == 0;
}

ScopedPlansOff::ScopedPlansOff(bool active) : active_(active) {
  if (active_) g_plans_off.fetch_add(1, std::memory_order_relaxed);
}

ScopedPlansOff::~ScopedPlansOff() {
  if (active_) g_plans_off.fetch_sub(1, std::memory_order_relaxed);
}

bool PlanCaptureActive() { return t_capture != nullptr; }

}  // namespace head::nn
