// Static execution plans: trace the tape once, replay it forever.
//
// The BP-DQN and LST-GAT architectures are fixed — every Act / critic /
// actor / Predict / train step at a given batch shape builds the *same*
// graph into the arena and re-walks it node by node. A PlanCapture records
// one eager step (forward, and the Backward schedule when the step trains)
// into an immutable ExecPlan; subsequent steps feed fresh input tensors and
// Replay() re-runs the recorded schedule with zero graph construction,
// VarImpl allocation, or topological sorting.
//
//   nn::PlanCapture capture;
//   nn::Var out = net.Forward(input);          // ordinary eager code
//   nn::Backward(out);                         // optional: records backward
//   std::shared_ptr<const nn::ExecPlan> plan = capture.Finish({out});
//   ...
//   const nn::Tensor& y = *plan->Replay({next_input}).front();
//
// How capture works: while a PlanCapture is live on the thread, every op's
// MakeResult (and Var::Constant / nn::PlanInput) allocates its node from
// the plan's own stable-address storage instead of the thread arena, and
// records the op's replay-forward function (arena.h VarImpl::forward) — a
// verbatim re-run of the op's eager arithmetic: the same kernel-table entry
// points, the same accumulation order, the same HEAD_PROF_OP line. Parents
// are recorded even under NoGradGuard (replay needs the data edges), and
// nn::Backward freezes its reverse topological order into the plan instead
// of tearing the tape down. The captured step itself remains observably
// identical to an eager step, so capture-on-first-use is free.
//
// Replay and threads: the master nodes are immutable after Finish(). Each
// replaying thread lazily clones them into a thread-local ReplayContext
// (parent pointers rewired to the clones; external parents — persistent
// Params — stay shared so replay always reads live optimizer-updated
// weights). Forward-only plans are therefore safe to replay concurrently
// from any number of threads (EnvPool rollouts share one Act plan and one
// Predict plan); plans that carry a backward schedule accumulate into the
// shared Param grads and belong to the single learner thread, same as the
// eager path.
//
// Inputs: nn::PlanInput(t) marks a per-step input. Outside capture it is
// exactly Var::Constant(t); inside, it registers a replay slot. Slots are
// matched to Replay() arguments by creation order, so a call site's feeder
// must push tensors in the order the captured code consumed them.
// Var::Constant under capture freezes its value into the plan (initial LSTM
// state, uniform-attention fallbacks, the all-ones bias column).
//
// Fallback: call sites key plans by shape and fall back to the eager arena
// path for unseen shapes, non-capturable models, or when disabled
// (HEAD_PLANS=0 in the environment, or a live ScopedPlansOff).
#ifndef HEAD_NN_PLAN_H_
#define HEAD_NN_PLAN_H_

#include <cstdint>
#include <deque>
#include <initializer_list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "nn/arena.h"
#include "nn/autograd.h"
#include "nn/tensor.h"

namespace head::nn {

class ExecPlan;

/// A per-step data input. Outside capture: exactly Var::Constant(value).
/// Inside capture: a replay input slot, matched to Replay() arguments by
/// creation order.
Var PlanInput(Tensor value);

namespace plan_internal {
struct ReplayContext;
// Hooks for autograd.cc — not part of the public surface.
bool Active();
internal::VarImpl* NewNode();
void RecordBackward(internal::VarImpl* root,
                    const std::vector<internal::VarImpl*>& order);
void RegisterIndexSlot(internal::VarImpl* node);
}  // namespace plan_internal

/// An immutable compiled step: the captured nodes in creation order, the
/// input/index slots, the frozen backward schedule, and the output nodes.
/// Create via PlanCapture::Finish; replay from any thread (see file docs
/// for the backward-plan single-learner caveat).
class ExecPlan : public std::enable_shared_from_this<ExecPlan> {
 public:
  ExecPlan(const ExecPlan&) = delete;
  ExecPlan& operator=(const ExecPlan&) = delete;
  ~ExecPlan();

  /// Re-runs the recorded schedule against fresh inputs: `inputs` fill the
  /// PlanInput slots in registration order; `index_inputs` (optional)
  /// overwrite the index slots (SelectColumnPerRow) — omitted, the
  /// capture-step indices stay in effect. When the plan carries a backward
  /// schedule it runs too, accumulating into the shared Param grads.
  /// Returns one tensor pointer per Finish() output, owned by the calling
  /// thread's replay context: valid until this thread's next Replay of this
  /// plan. Steady-state replays perform zero arena node allocations; tensor
  /// buffers cycle through the TensorPool exactly like a warm eager step.
  std::vector<const Tensor*> Replay(
      std::vector<Tensor> inputs,
      std::initializer_list<const std::vector<int>*> index_inputs = {}) const;

  size_t num_inputs() const { return input_slots_.size(); }
  size_t num_index_slots() const { return index_slots_.size(); }
  size_t num_nodes() const { return nodes_.size(); }
  bool has_backward() const { return !backward_order_.empty(); }
  uint64_t serial() const { return serial_; }

 private:
  friend class PlanCapture;
  friend struct plan_internal::ReplayContext;
  friend internal::VarImpl* plan_internal::NewNode();
  friend void plan_internal::RecordBackward(
      internal::VarImpl* root, const std::vector<internal::VarImpl*>& order);
  friend void plan_internal::RegisterIndexSlot(internal::VarImpl* node);
  friend Var PlanInput(Tensor value);

  ExecPlan() = default;

  std::deque<internal::VarImpl> nodes_;  ///< creation order; stable addresses
  std::unordered_map<const internal::VarImpl*, int> index_of_;
  std::vector<int> input_slots_;    ///< node index per PlanInput, in order
  std::vector<int> index_slots_;    ///< node index per replayable index list
  std::vector<int> backward_order_; ///< frozen topo order (root last); empty
                                    ///< for forward-only plans
  std::vector<int> outputs_;
  uint64_t serial_ = 0;
};

/// RAII capture of one step's tape. Construction enters capture mode on the
/// calling thread (no nesting); Finish() seals and returns the plan.
/// Destruction without Finish abandons the capture (error paths) — the
/// half-built plan is discarded and eager execution resumes.
class PlanCapture {
 public:
  PlanCapture();
  ~PlanCapture();
  PlanCapture(const PlanCapture&) = delete;
  PlanCapture& operator=(const PlanCapture&) = delete;

  /// Seals the plan: resolves output nodes, validates that every external
  /// parent is a persistent leaf (epoch 0 — a Param whose storage outlives
  /// the plan), and leaves master grads empty so per-thread clones replay
  /// from fresh-tape state.
  std::shared_ptr<const ExecPlan> Finish(std::initializer_list<Var> outputs);

 private:
  std::shared_ptr<ExecPlan> plan_;
  bool finished_ = false;
};

/// Process-wide kill switch: false when HEAD_PLANS=0 is set in the
/// environment (the plans-off CI stage) or while a ScopedPlansOff is live;
/// call sites must then keep to the eager path. The variable is read once,
/// so flipping it mid-process has no effect.
bool PlansEnabled();

/// Turns plans off process-wide for its lifetime — every thread, EnvPool
/// workers included — so a test or bench can run the eager reference of a
/// planned step; `active = false` makes it a no-op, for callers that pick
/// the side at run time. It can only disable: with HEAD_PLANS=0 plans stay
/// off. Scopes nest. Plans already compiled stay cached and are replayed
/// again once the last scope ends.
class ScopedPlansOff {
 public:
  explicit ScopedPlansOff(bool active = true);
  ~ScopedPlansOff();
  ScopedPlansOff(const ScopedPlansOff&) = delete;
  ScopedPlansOff& operator=(const ScopedPlansOff&) = delete;

 private:
  bool active_;
};

/// True while a PlanCapture is live on the calling thread.
bool PlanCaptureActive();

}  // namespace head::nn

#endif  // HEAD_NN_PLAN_H_
