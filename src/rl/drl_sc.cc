#include "rl/drl_sc.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "obs/profiler.h"
#include "perception/neighbor.h"

namespace head::rl {

namespace {

/// Decoded relative state of target area `i` (0-based) from s.h row 1+i.
struct RelState {
  double d_lat_m;
  double d_lon_m;
  double v_rel_mps;
  bool is_phantom;
};

RelState DecodeTarget(const AugmentedState& s,
                      const perception::FeatureScale& scale, int i) {
  return RelState{s.h.At(1 + i, 0) / scale.lat, s.h.At(1 + i, 1) / scale.lon,
                  s.h.At(1 + i, 2) / scale.v, s.h.At(1 + i, 3) > 0.5};
}

}  // namespace

DrlScAgent::DrlScAgent(const DrlScConfig& config, Rng& init_rng)
    : config_(config),
      q_({kFlatStateDim, 2 * config.hidden, config.hidden, kNumActions},
         nn::Mlp::Activation::kRelu, init_rng),
      q_target_(
          {kFlatStateDim, 2 * config.hidden, config.hidden, kNumActions},
          nn::Mlp::Activation::kRelu, init_rng),
      opt_(q_.Params(), config.learning_rate),
      buffer_(config.buffer_capacity) {
  q_target_.CopyParamsFrom(q_);
}

Maneuver DrlScAgent::DecodeAction(int action_index) const {
  HEAD_DCHECK(action_index >= 0 && action_index < kNumActions);
  const int b = action_index / kAccelLevels;
  const int level = action_index % kAccelLevels;
  const double accel = -config_.road.a_max_mps2 +
                       level * (2.0 * config_.road.a_max_mps2) /
                           (kAccelLevels - 1);
  return Maneuver{BehaviorToLaneChange(b), accel};
}

bool DrlScAgent::IsSafe(const AugmentedState& s, const Maneuver& m) const {
  using perception::kFrontLeft;
  using perception::kFront;
  using perception::kFrontRight;
  using perception::kRearLeft;
  using perception::kRearRight;

  const int ego_lane = static_cast<int>(
      std::lround(s.h.At(0, 0) * config_.road.num_lanes));
  const double ego_v = s.h.At(0, 2) * config_.road.v_max_mps;

  // Lane-change safety: target lane must exist and the adjacent front/rear
  // vehicles must leave enough gap.
  if (m.lane_change != LaneChange::kKeep) {
    const int target_lane = ego_lane + LaneDelta(m.lane_change);
    if (!config_.road.IsValidLane(target_lane)) return false;
    const int front_area =
        m.lane_change == LaneChange::kLeft ? kFrontLeft : kFrontRight;
    const int rear_area =
        m.lane_change == LaneChange::kLeft ? kRearLeft : kRearRight;
    const RelState front = DecodeTarget(s, config_.scale, front_area);
    const RelState rear = DecodeTarget(s, config_.scale, rear_area);
    if (!front.is_phantom &&
        std::fabs(front.d_lon_m) < config_.min_lane_change_gap_m) {
      return false;
    }
    if (!rear.is_phantom &&
        std::fabs(rear.d_lon_m) < config_.min_lane_change_gap_m) {
      return false;
    }
  }

  // Longitudinal safety: TTC with the (possibly new) front vehicle after
  // applying the acceleration for one step.
  const int look_area = m.lane_change == LaneChange::kLeft  ? kFrontLeft
                        : m.lane_change == LaneChange::kRight ? kFrontRight
                                                              : kFront;
  const RelState front = DecodeTarget(s, config_.scale, look_area);
  if (!front.is_phantom) {
    const double v_new = std::clamp(ego_v + m.accel_mps2 * config_.road.dt_s,
                                    config_.road.v_min_mps,
                                    config_.road.v_max_mps);
    const double front_v = ego_v + front.v_rel_mps;
    const double closing = v_new - front_v;
    const double gap = front.d_lon_m - kVehicleLengthM;
    if (gap < 1.0) return false;
    if (closing > 0.0 && gap / closing < config_.min_ttc_s) return false;
    // Kinematic feasibility: even braking at a′ the gap must not close.
    if (closing > 0.0 &&
        gap < closing * closing / (2.0 * config_.road.a_max_mps2) + 2.0) {
      return false;
    }
  }
  return true;
}

AgentAction DrlScAgent::Act(const AugmentedState& state, double epsilon,
                            Rng& rng) {
  HEAD_SCOPE("rl.act");
  nn::ResetTape();  // recycle the previous action's graph nodes
  const nn::NoGradGuard no_grad;  // action selection never backprops
  const nn::Tensor q =
      q_.Forward(nn::Var::Constant(FlattenState(state))).value();
  // Rank actions: explored actions draw a random preference, greedy uses Q.
  std::vector<int> order(kNumActions);
  for (int i = 0; i < kNumActions; ++i) order[i] = i;
  if (epsilon > 0.0 && rng.Uniform(0.0, 1.0) < epsilon) {
    std::shuffle(order.begin(), order.end(), rng.engine());
  } else {
    std::sort(order.begin(), order.end(),
              [&q](int a, int b) { return q.At(0, a) > q.At(0, b); });
  }
  // Safety check: take the best-ranked safe action.
  int chosen = -1;
  for (int idx : order) {
    if (IsSafe(state, DecodeAction(idx))) {
      chosen = idx;
      break;
    }
  }
  AgentAction action;
  if (chosen < 0) {
    // Nothing passes: emergency brake in lane.
    action.behavior = kBehaviorKeep * kAccelLevels;  // (lk, −a′)
    action.maneuver = Maneuver{LaneChange::kKeep, -config_.road.a_max_mps2};
  } else {
    action.behavior = chosen;
    action.maneuver = DecodeAction(chosen);
  }
  action.params = nn::Tensor();  // unused for the discrete agent
  return action;
}

void DrlScAgent::Remember(const AugmentedState& state,
                          const AgentAction& action, double reward,
                          const AugmentedState& next_state, bool terminal) {
  Transition t;
  t.state = state;
  t.behavior = action.behavior;
  t.reward = reward;
  t.next_state = next_state;
  t.terminal = terminal;
  buffer_.Push(std::move(t));
}

void DrlScAgent::Update(Rng& rng) {
  if (buffer_.size() < static_cast<size_t>(config_.warmup_transitions)) {
    return;
  }
  ++update_calls_;
  if (config_.update_every > 1 &&
      update_calls_ % config_.update_every != 0) {
    return;
  }
  const auto batch = buffer_.Sample(config_.batch_size, rng);
  nn::ResetTape();
  opt_.ZeroGrad();
  std::vector<nn::Var> losses;
  losses.reserve(batch.size());
  for (const Transition* t : batch) {
    double y = t->reward;
    if (!t->terminal) {
      const nn::Tensor q_next =
          q_target_.Forward(nn::Var::Constant(FlattenState(t->next_state)))
              .value();
      double best = q_next.At(0, 0);
      for (int c = 1; c < kNumActions; ++c) {
        best = std::max(best, q_next.At(0, c));
      }
      y += config_.gamma * best;
    }
    const nn::Var q_all =
        q_.Forward(nn::Var::Constant(FlattenState(t->state)));
    const nn::Var q_b = nn::SliceCols(q_all, t->behavior, t->behavior + 1);
    losses.push_back(nn::Scale(nn::Square(nn::AddScalar(q_b, -y)), 0.5));
  }
  nn::Var loss = losses[0];
  for (size_t i = 1; i < losses.size(); ++i) loss = nn::Add(loss, losses[i]);
  loss = nn::Scale(loss, 1.0 / losses.size());
  nn::Backward(loss);
  opt_.ClipGradNorm(10.0);
  opt_.Step();
  q_target_.SoftUpdateFrom(q_, config_.tau);
}

}  // namespace head::rl
