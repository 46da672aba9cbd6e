// The Parameterized-Action MDP of Sec. IV-A: augmented states (current
// states h^t + predicted future states f̂^{t+1}, Eqs. 15–16), parameterized
// actions (discrete lane-change behavior with a continuous acceleration
// parameter, Eq. 17), and the common agent interface every RL method
// (BP-DQN, P-DQN, P-DDPG, P-QP, DRL-SC) implements.
#ifndef HEAD_RL_PAMDP_H_
#define HEAD_RL_PAMDP_H_

#include <string>

#include "common/rng.h"
#include "common/types.h"
#include "nn/tensor.h"
#include "perception/predictor.h"

namespace head::rl {

/// Discrete behavior indices, matching the paper's {ll, lr, lk} ordering of
/// the network output heads.
inline constexpr int kNumBehaviors = 3;
inline constexpr int kBehaviorLeft = 0;
inline constexpr int kBehaviorRight = 1;
inline constexpr int kBehaviorKeep = 2;

LaneChange BehaviorToLaneChange(int b);
int LaneChangeToBehavior(LaneChange lc);

/// s⁺ = [h^t, f̂^{t+1}]: `h` is (7×4) — ego raw feature + six target
/// relative features (Eq. 15); `f` is (6×4) — predicted relative target
/// states + phantom flags (Eq. 16). Features carry the same scaling as the
/// perception graph.
struct AugmentedState {
  nn::Tensor h;
  nn::Tensor f;
};

inline constexpr int kStateHRows = 7;
inline constexpr int kStateFRows = 6;
inline constexpr int kStateCols = perception::kFeatureDim;
/// Flattened width of [h ‖ f] = 52, used by single-branch baselines.
inline constexpr int kFlatStateDim =
    (kStateHRows + kStateFRows) * kStateCols;

/// Builds s⁺ from the perception outputs. When `use_prediction` is false the
/// "future" block carries the current states instead (the HEAD-w/o-LST-GAT
/// ablation).
AugmentedState BuildAugmentedState(const perception::StGraph& graph,
                                   const perception::Prediction& prediction,
                                   const RoadConfig& road,
                                   const perception::FeatureScale& scale,
                                   bool use_prediction = true);

/// Flattens s⁺ into a (1×52) row for single-branch networks.
nn::Tensor FlattenState(const AugmentedState& s);

/// Flattens a minibatch of states into a (B×52) matrix, one row per state —
/// the input shape of the vectorized single-branch forward passes.
nn::Tensor FlattenStates(const std::vector<const AugmentedState*>& batch);

/// The action an agent chose, with the internals needed for replay.
///
/// `behavior` is the chosen discrete action index, whose layout is
/// agent-specific:
///   * P-DQN family (BP-DQN, P-DQN, P-DDPG, P-QP): a behavior in
///     [0, kNumBehaviors), the {ll, lr, lk} head of the network output;
///   * DRL-SC: the flat index behavior × DrlScAgent::kAccelLevels +
///     acceleration level, in [0, DrlScAgent::kNumActions) (rl/drl_sc.h).
/// Only the agent that produced it interprets it; everything else (replay,
/// EnvPool transitions) copies it through. `maneuver` always holds the
/// decoded lane change and acceleration.
struct AgentAction {
  Maneuver maneuver;
  int behavior = kBehaviorKeep;  ///< discrete action index (layout above)
  /// Full action-parameter vector the agent emitted (layout agent-specific;
  /// P-DQN-family: the 3 accelerations; DRL-SC: unused).
  nn::Tensor params;
};

/// Common interface of all maneuver-decision learners.
class PamdpAgent {
 public:
  virtual ~PamdpAgent() = default;

  virtual std::string name() const = 0;

  /// Chooses an action; `epsilon` drives the agent-specific exploration
  /// (ε-greedy over behaviors + parameter noise). Pass 0 for greedy.
  virtual AgentAction Act(const AugmentedState& state, double epsilon,
                          Rng& rng) = 0;

  /// Stores a transition in the agent's replay memory.
  virtual void Remember(const AugmentedState& state, const AgentAction& action,
                        double reward, const AugmentedState& next_state,
                        bool terminal) = 0;

  /// One learning step (no-op until the replay memory warms up).
  virtual void Update(Rng& rng) = 0;

  /// Multiplies the current optimizer learning rates by `factor` (the
  /// paper trains with a *scheduled* learning rate). Default: no-op.
  virtual void ScaleLearningRate(double factor) { (void)factor; }
};

}  // namespace head::rl

#endif  // HEAD_RL_PAMDP_H_
