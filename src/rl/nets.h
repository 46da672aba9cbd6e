// Actor (x) and critic (Q) networks for the P-DQN family.
//
// BP-DQN (paper Sec. IV-B, Fig. 6, Eqs. 24–27) processes h^t, f̂^{t+1} and
// x^t_out in *separate branches* before merging — avoiding the erroneous
// weight sharing between differently scaled inputs that vanilla P-DQN
// suffers from. P-DQN uses single-branch MLPs over the flattened state.
#ifndef HEAD_RL_NETS_H_
#define HEAD_RL_NETS_H_

#include <memory>
#include <vector>

#include "nn/layers.h"
#include "rl/pamdp.h"

namespace head::rl {

/// Deterministic action-parameter network x(s; θx): emits the three
/// accelerations (one per lane-change behavior), bounded to ±a' by tanh.
///
/// Every net has one forward pass, over a minibatch; B=1 is the per-sample
/// case. The pass builds a fixed-shape graph whose data enters only through
/// nn::PlanInput, so PdqnAgent may compile any step into an nn::ExecPlan.
class XNet : public nn::Module {
 public:
  ~XNet() override = default;
  /// Minibatch forward: one autograd graph over all B states, (B×3) output.
  virtual nn::Var ForwardBatch(
      const std::vector<const AugmentedState*>& batch) const = 0;
  /// Replay feeder: pushes the per-step input tensors in the exact order a
  /// captured ForwardBatch(batch) consumed them.
  virtual void AppendPlanInputsBatch(
      const std::vector<const AugmentedState*>& batch,
      std::vector<nn::Tensor>* inputs) const = 0;

  /// B=1: ForwardBatch({&s}), a (1×3) output.
  nn::Var Forward(const AugmentedState& s) const { return ForwardBatch({&s}); }
  void AppendPlanInputs(const AugmentedState& s,
                        std::vector<nn::Tensor>* inputs) const {
    AppendPlanInputsBatch({&s}, inputs);
  }
};

/// Action-value network Q(s, x; θQ): three Q values, one per behavior.
/// `x` is passed as a Var so actor gradients can flow through the critic.
class QNet : public nn::Module {
 public:
  ~QNet() override = default;
  /// Minibatch forward; `x` is (B×3) and gradients still flow through it.
  virtual nn::Var ForwardBatch(const std::vector<const AugmentedState*>& batch,
                               const nn::Var& x) const = 0;
  /// Replay feeder (see XNet). It covers the *state* inputs only — `x` is
  /// a graph node the caller feeds separately.
  virtual void AppendPlanInputsBatch(
      const std::vector<const AugmentedState*>& batch,
      std::vector<nn::Tensor>* inputs) const = 0;

  /// B=1: ForwardBatch({&s}, x) with a (1×3) `x`.
  nn::Var Forward(const AugmentedState& s, const nn::Var& x) const {
    return ForwardBatch({&s}, x);
  }
  void AppendPlanInputs(const AugmentedState& s,
                        std::vector<nn::Tensor>* inputs) const {
    AppendPlanInputsBatch({&s}, inputs);
  }
};

/// Per-vehicle branch of Eq. (24)/(26): ReLU(φ_b·ReLU(φ_a·X + b_a) + b_b)
/// applied row-wise to a (rows×4) block, yielding one scalar per vehicle,
/// returned as a (1×rows) row.
class BranchEncoder : public nn::Module {
 public:
  BranchEncoder(int rows, int hidden, Rng& rng);
  /// Vectorized over a minibatch: `blocks` is B per-state blocks stacked
  /// row-wise ((B·rows)×4); returns (B×rows), one reduced row per state.
  nn::Var ForwardStacked(const nn::Tensor& blocks, int batch) const;
  std::vector<nn::Var> Params() const override;
  int rows() const { return rows_; }

 private:
  int rows_;
  nn::Linear l1_;
  nn::Linear l2_;
};

// ---- BP-DQN branched networks ----

class BpXNet : public XNet {
 public:
  BpXNet(int hidden, double a_max, Rng& rng);
  /// Eq. (25).
  nn::Var ForwardBatch(
      const std::vector<const AugmentedState*>& batch) const override;
  void AppendPlanInputsBatch(const std::vector<const AugmentedState*>& batch,
                             std::vector<nn::Tensor>* inputs) const override;
  std::vector<nn::Var> Params() const override;

 private:
  double a_max_;
  BranchEncoder h_branch_;  // φ5/φ6
  BranchEncoder f_branch_;  // φ7/φ8
  nn::Linear out_;          // φ9: 13 → 3
};

class BpQNet : public QNet {
 public:
  BpQNet(int hidden, Rng& rng);
  nn::Var ForwardBatch(const std::vector<const AugmentedState*>& batch,
                       const nn::Var& x) const override;
  void AppendPlanInputsBatch(const std::vector<const AugmentedState*>& batch,
                             std::vector<nn::Tensor>* inputs) const override;
  std::vector<nn::Var> Params() const override;

 private:
  BranchEncoder h_branch_;  // φ10/φ11
  BranchEncoder f_branch_;  // φ12/φ13
  nn::Linear x1_;           // φ14: 3 → hidden
  nn::Linear x2_;           // φ15: hidden → 3
  // Fusion head. The paper's Eq. (27) merges [h' ‖ f' ‖ x'] with a single
  // linear map, which makes Q(s,x) = A(s) + B(x) additively separable — the
  // optimal acceleration would be the same in every state. One hidden layer
  // restores the state-action interaction while keeping the branched
  // encoders that are BP-DQN's contribution.
  nn::Linear fuse_;  // 16 → hidden
  nn::Linear out_;   // hidden → 3
};

// ---- Vanilla P-DQN single-branch networks (Xiong et al. [54]) ----

class FlatXNet : public XNet {
 public:
  FlatXNet(int hidden, double a_max, Rng& rng);
  nn::Var ForwardBatch(
      const std::vector<const AugmentedState*>& batch) const override;
  void AppendPlanInputsBatch(const std::vector<const AugmentedState*>& batch,
                             std::vector<nn::Tensor>* inputs) const override;
  std::vector<nn::Var> Params() const override;

 private:
  double a_max_;
  nn::Mlp mlp_;  // 52 → hidden → hidden → 3
};

class FlatQNet : public QNet {
 public:
  FlatQNet(int hidden, Rng& rng);
  nn::Var ForwardBatch(const std::vector<const AugmentedState*>& batch,
                       const nn::Var& x) const override;
  void AppendPlanInputsBatch(const std::vector<const AugmentedState*>& batch,
                             std::vector<nn::Tensor>* inputs) const override;
  std::vector<nn::Var> Params() const override;

 private:
  nn::Linear in_;   // 55 → hidden (state and action share one layer)
  nn::Linear mid_;  // hidden → hidden
  nn::Linear out_;  // hidden → 3
};

}  // namespace head::rl

#endif  // HEAD_RL_NETS_H_
