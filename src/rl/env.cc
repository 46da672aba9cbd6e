#include "rl/env.h"

#include "common/check.h"
#include "obs/recorder.h"
#include "obs/profiler.h"

namespace head::rl {

DrivingEnv::DrivingEnv(const EnvConfig& config,
                       const perception::StatePredictor* predictor,
                       uint64_t seed)
    : config_(config),
      predictor_(predictor),
      sim_(config.sim, seed),
      history_(config.history_z),
      reward_fn_(config.reward, config.sim.road) {
  if (config_.use_prediction) {
    HEAD_CHECK_MSG(predictor_ != nullptr,
                   "use_prediction requires a state predictor");
  }
}

AugmentedState DrivingEnv::Perceive() {
  HEAD_SCOPE("env.perceive");
  perception::ObservationFrame frame;
  frame.ego = sim_.ego_state();
  frame.observed = sensor::Observe(sim_.GlobalSnapshot(), sim_.ego_state(),
                                   config_.sensor, config_.sim.road);
  history_.Push(std::move(frame));
  const perception::CompletedScene scene = perception::ConstructPhantoms(
      history_, config_.sim.road, config_.sensor.range_m, config_.use_pvc);
  graph_ = perception::BuildStGraph(scene, config_.sim.road, config_.scale);

  perception::Prediction prediction{};
  if (config_.use_prediction) {
    prediction = predictor_->Predict(graph_);
  }
  return BuildAugmentedState(graph_, prediction, config_.sim.road,
                             config_.scale, config_.use_prediction);
}

AugmentedState DrivingEnv::Reset(uint64_t seed) {
  sim_.Reset(seed);
  history_.Clear();
  prev_accel_ = 0.0;
  return Perceive();
}

std::optional<sim::VehicleSnapshot> DrivingEnv::RealNeighbor(
    bool front) const {
  const sim::Vehicle* v = sim_.EgoNeighbor(front);
  if (v == nullptr) return std::nullopt;
  return sim::VehicleSnapshot{v->id, v->state};
}

DrivingEnv::StepOutcome DrivingEnv::Step(const Maneuver& maneuver) {
  HEAD_SCOPE("env.step");
  HEAD_CHECK(sim_.status() == sim::EpisodeStatus::kRunning);

  // Remember the rear conventional vehicle before acting (impact reward
  // compares its velocity across the transition, Eq. 30).
  const std::optional<sim::VehicleSnapshot> rear_before = RealNeighbor(false);

  const sim::EpisodeStatus status = sim_.Step(maneuver);

  StepOutcome out;
  out.status = status;
  out.done = status != sim::EpisodeStatus::kRunning;

  RewardObservation obs;
  obs.collision = status == sim::EpisodeStatus::kCollision;
  obs.ego_next = sim_.ego_state();
  obs.accel_now_mps2 = maneuver.accel_mps2;
  obs.accel_prev_mps2 = prev_accel_;
  const std::optional<sim::VehicleSnapshot> front_after = RealNeighbor(true);
  if (front_after.has_value()) obs.front_next = front_after->state;
  if (rear_before.has_value()) {
    obs.rear_v_now_mps = rear_before->state.v_mps;
    // Track the same vehicle after the step (it may have changed lanes or
    // fallen out of being "the" follower — what matters is its slowdown).
    for (const sim::Vehicle& v : sim_.conventional_vehicles()) {
      if (v.id == rear_before->id) {
        obs.rear_v_next_mps = v.state.v_mps;
        break;
      }
    }
  }
  out.reward = reward_fn_.Compute(obs);

  // Flight recorder: the scratch now holds this step's full story
  // (perception from the pre-step Perceive, the agent's decision internals,
  // the applied maneuver + ego outcome from sim_.Step, the reward
  // decomposition above) — commit it before the trailing Perceive starts
  // filling the next step's scratch.
  if (obs::RecordingEnabled()) obs::CommitStepRecord();

  prev_accel_ = maneuver.accel_mps2;
  out.next_state = Perceive();
  return out;
}

}  // namespace head::rl
