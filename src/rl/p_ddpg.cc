#include "rl/p_ddpg.h"

#include <algorithm>

#include "common/check.h"
#include "obs/profiler.h"

namespace head::rl {

namespace {
constexpr int kActionDim = 2 * kNumBehaviors;  // logits + parameters
}  // namespace

PddpgAgent::PddpgAgent(const PddpgConfig& config, Rng& init_rng)
    : config_(config),
      actor_({kFlatStateDim, 2 * config.hidden, config.hidden, kActionDim},
             nn::Mlp::Activation::kRelu, init_rng),
      actor_target_(
          {kFlatStateDim, 2 * config.hidden, config.hidden, kActionDim},
          nn::Mlp::Activation::kRelu, init_rng),
      critic_({kFlatStateDim + kActionDim, 2 * config.hidden, config.hidden,
               1},
              nn::Mlp::Activation::kRelu, init_rng),
      critic_target_({kFlatStateDim + kActionDim, 2 * config.hidden,
                      config.hidden, 1},
                     nn::Mlp::Activation::kRelu, init_rng),
      critic_opt_(critic_.Params(), config.learning_rate),
      actor_opt_(actor_.Params(),
                 config.learning_rate * config.actor_lr_scale),
      buffer_(config.buffer_capacity) {
  std::vector<nn::Var> params = actor_.Params();
  nn::Tensor& w = params[params.size() - 2].mutable_value();
  for (int i = 0; i < w.size(); ++i) w[i] *= 0.1;
  actor_target_.CopyParamsFrom(actor_);
  critic_target_.CopyParamsFrom(critic_);
}

nn::Var PddpgAgent::Actor(const nn::Mlp& net, const AugmentedState& s) const {
  const nn::Var raw =
      nn::Tanh(net.Forward(nn::Var::Constant(FlattenState(s))));
  const nn::Var logits = nn::SliceCols(raw, 0, kNumBehaviors);
  const nn::Var params = nn::Scale(
      nn::SliceCols(raw, kNumBehaviors, kActionDim), config_.a_max);
  return nn::ConcatCols({logits, params});
}

nn::Var PddpgAgent::Critic(const nn::Mlp& net, const AugmentedState& s,
                           const nn::Var& u) const {
  return net.Forward(
      nn::ConcatCols({nn::Var::Constant(FlattenState(s)), u}));
}

AgentAction PddpgAgent::Act(const AugmentedState& state, double epsilon,
                            Rng& rng) {
  HEAD_SCOPE("rl.act");
  nn::ResetTape();  // recycle the previous action's graph nodes
  const nn::NoGradGuard no_grad;  // action selection never backprops
  nn::Tensor u = Actor(actor_, state).value();  // (1×6)
  int b = 0;
  for (int c = 1; c < kNumBehaviors; ++c) {
    if (u.At(0, c) > u.At(0, b)) b = c;
  }
  if (epsilon > 0.0 && rng.Uniform(0.0, 1.0) < epsilon) {
    if (rng.Uniform(0.0, 1.0) < config_.explore_keep_bias) {
      b = kBehaviorKeep;
    } else {
      b = rng.Bernoulli(0.5) ? kBehaviorLeft : kBehaviorRight;
    }
    // Reflect the explored choice in the stored action vector.
    u.At(0, b) = 1.0;
  }
  double accel = u.At(0, kNumBehaviors + b);
  if (epsilon > 0.0) {
    accel += epsilon * config_.noise_std * rng.Normal(0.0, 1.0);
    accel = std::clamp(accel, -config_.a_max, config_.a_max);
    u.At(0, kNumBehaviors + b) = accel;
  }
  AgentAction action;
  action.behavior = b;
  action.maneuver = Maneuver{BehaviorToLaneChange(b), accel};
  action.params = std::move(u);
  return action;
}

void PddpgAgent::Remember(const AugmentedState& state,
                          const AgentAction& action, double reward,
                          const AugmentedState& next_state, bool terminal) {
  Transition t;
  t.state = state;
  t.behavior = action.behavior;
  t.params = action.params;
  t.reward = reward;
  t.next_state = next_state;
  t.terminal = terminal;
  buffer_.Push(std::move(t));
}

void PddpgAgent::Update(Rng& rng) {
  if (buffer_.size() < static_cast<size_t>(config_.warmup_transitions)) {
    return;
  }
  ++update_calls_;
  if (config_.update_every > 1 &&
      update_calls_ % config_.update_every != 0) {
    return;
  }
  const auto batch = buffer_.Sample(config_.batch_size, rng);

  // Critic.
  nn::ResetTape();
  critic_opt_.ZeroGrad();
  std::vector<nn::Var> c_losses;
  c_losses.reserve(batch.size());
  for (const Transition* t : batch) {
    double y = t->reward;
    if (!t->terminal) {
      const nn::Var u_next = Actor(actor_target_, t->next_state);
      y += config_.gamma *
           Critic(critic_target_, t->next_state, u_next).value()[0];
    }
    const nn::Var q =
        Critic(critic_, t->state, nn::Var::Constant(t->params));
    c_losses.push_back(nn::Scale(nn::Square(nn::AddScalar(q, -y)), 0.5));
  }
  nn::Var c_loss = c_losses[0];
  for (size_t i = 1; i < c_losses.size(); ++i) {
    c_loss = nn::Add(c_loss, c_losses[i]);
  }
  c_loss = nn::Scale(c_loss, 1.0 / c_losses.size());
  nn::Backward(c_loss);
  critic_opt_.ClipGradNorm(10.0);
  critic_opt_.Step();

  // Actor.
  nn::ResetTape();  // the critic pass's tape is spent at this point
  actor_opt_.ZeroGrad();
  critic_.ZeroGrad();
  std::vector<nn::Var> a_losses;
  a_losses.reserve(batch.size());
  for (const Transition* t : batch) {
    const nn::Var u = Actor(actor_, t->state);
    a_losses.push_back(nn::Scale(Critic(critic_, t->state, u), -1.0));
  }
  nn::Var a_loss = a_losses[0];
  for (size_t i = 1; i < a_losses.size(); ++i) {
    a_loss = nn::Add(a_loss, a_losses[i]);
  }
  a_loss = nn::Scale(a_loss, 1.0 / a_losses.size());
  nn::Backward(a_loss);
  actor_opt_.ClipGradNorm(10.0);
  actor_opt_.Step();

  actor_target_.SoftUpdateFrom(actor_, config_.tau);
  critic_target_.SoftUpdateFrom(critic_, config_.tau);
}

void PddpgAgent::ScaleLearningRate(double factor) {
  critic_opt_.set_learning_rate(critic_opt_.learning_rate() * factor);
  actor_opt_.set_learning_rate(actor_opt_.learning_rate() * factor);
}

}  // namespace head::rl
