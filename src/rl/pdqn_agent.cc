#include "rl/pdqn_agent.h"

#include <algorithm>
#include <optional>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/profiler.h"

namespace head::rl {

namespace {

int ArgMax(const nn::Tensor& row) {
  HEAD_DCHECK(row.rows() == 1 && row.cols() > 0);
  int best = 0;
  for (int c = 1; c < row.cols(); ++c) {
    if (row.At(0, c) > row.At(0, best)) best = c;
  }
  return best;
}

/// Per-site plan-cache cap: update plans are keyed by batch size, which is
/// nearly always a single value (config batch_size); the cap bounds memory
/// if a caller cycles through many sizes — extras just run eagerly.
constexpr size_t kMaxPlansPerSite = 8;

}  // namespace

PdqnAgent::PdqnAgent(std::string name, const PdqnConfig& config,
                     const XFactory& make_x, const QFactory& make_q,
                     Rng& init_rng)
    : name_(std::move(name)),
      config_(config),
      x_(make_x(init_rng)),
      x_target_(make_x(init_rng)),
      q_(make_q(init_rng)),
      q_target_(make_q(init_rng)),
      q_opt_(q_->Params(), config.learning_rate),
      x_opt_(x_->Params(), config.learning_rate * config.actor_lr_scale),
      buffer_(config.buffer_capacity) {
  x_target_->CopyParamsFrom(*x_);
  q_target_->CopyParamsFrom(*q_);
}

AgentAction PdqnAgent::Act(const AugmentedState& state, double epsilon,
                           Rng& rng) {
  HEAD_SCOPE("rl.act");  // profiler root for action selection
  nn::ResetTape();  // recycle the previous action's graph nodes
  const nn::NoGradGuard no_grad;  // action selection never backprops
  const bool use_plans = nn::PlansEnabled();

  nn::Tensor x;  // (1×3)
  if (use_plans) {
    std::shared_ptr<const nn::ExecPlan> plan;
    {
      std::lock_guard<std::mutex> lock(plan_mu_);
      if (act_x_plan_ == nullptr) {
        nn::PlanCapture capture;
        act_x_plan_ = capture.Finish({x_->Forward(state)});
      }
      plan = act_x_plan_;
    }
    std::vector<nn::Tensor> in;
    x_->AppendPlanInputs(state, &in);
    x = *plan->Replay(std::move(in))[0];
  } else {
    x = x_->Forward(state).value();
  }

  // Critic evaluation, shared by the greedy branch and the audit trail.
  // Replay slot order: the caller-fed x first (BpQNet/FlatQNet consume the
  // x Var before their state inputs), then the net's own state tensors.
  const auto critic_q = [&](const nn::Tensor& xin) -> nn::Tensor {
    if (use_plans) {
      std::shared_ptr<const nn::ExecPlan> plan;
      {
        std::lock_guard<std::mutex> lock(plan_mu_);
        if (act_q_plan_ == nullptr) {
          nn::PlanCapture capture;
          act_q_plan_ =
              capture.Finish({q_->Forward(state, nn::PlanInput(xin))});
        }
        plan = act_q_plan_;
      }
      std::vector<nn::Tensor> in;
      in.push_back(xin);
      q_->AppendPlanInputs(state, &in);
      return *plan->Replay(std::move(in))[0];
    }
    return q_->Forward(state, nn::Var::Constant(xin)).value();
  };

  int b;
  bool explored = false;
  if (epsilon > 0.0 && rng.Uniform(0.0, 1.0) < epsilon) {
    explored = true;
    if (rng.Uniform(0.0, 1.0) < config_.explore_keep_bias) {
      b = kBehaviorKeep;
    } else {
      b = rng.Bernoulli(0.5) ? kBehaviorLeft : kBehaviorRight;
    }
  } else {
    const nn::Tensor q = critic_q(x);
    b = ArgMax(q);
    if (obs::RecordingEnabled()) {
      obs::StepRecord& rec = obs::ScratchRecord();
      for (int c = 0; c < obs::kRecordBehaviors && c < q.cols(); ++c) {
        rec.q[c] = q.At(0, c);
      }
      rec.has_q = 1;
    }
  }
  if (obs::RecordingEnabled() && explored) {
    // Exploration skipped the critic; run it for the audit trail only. A
    // pure forward pass draws no randomness, so the recorded run and its
    // replay stay in RNG lockstep whether or not recording was on.
    const nn::Tensor q = critic_q(x);
    obs::StepRecord& rec = obs::ScratchRecord();
    for (int c = 0; c < obs::kRecordBehaviors && c < q.cols(); ++c) {
      rec.q[c] = q.At(0, c);
    }
    rec.has_q = 1;
  }
  double accel = x.At(0, b);
  if (epsilon > 0.0) {
    const double noise_std = std::max(epsilon * config_.noise_std,
                                      config_.param_noise_floor);
    accel += noise_std * rng.Normal(0.0, 1.0);
  }
  accel = std::clamp(accel, -config_.a_max, config_.a_max);
  x.At(0, b) = accel;  // store the parameters as actually applied
  AgentAction action;
  action.behavior = b;
  action.maneuver = Maneuver{BehaviorToLaneChange(b), accel};
  action.params = std::move(x);
  if (obs::RecordingEnabled()) {
    obs::StepRecord& rec = obs::ScratchRecord();
    for (int c = 0; c < obs::kRecordBehaviors && c < action.params.cols();
         ++c) {
      rec.params[c] = action.params.At(0, c);
    }
    rec.has_params = 1;
    rec.behavior = b;
    rec.epsilon = epsilon;
  }
  return action;
}

void PdqnAgent::Remember(const AugmentedState& state,
                         const AgentAction& action, double reward,
                         const AugmentedState& next_state, bool terminal) {
  Transition t;
  t.state = state;
  t.behavior = action.behavior;
  t.params = action.params;
  t.reward = reward;
  t.next_state = next_state;
  t.terminal = terminal;
  const int copies = terminal ? std::max(1, config_.terminal_replay_boost) : 1;
  for (int i = 0; i < copies; ++i) buffer_.Push(t);
}

void PdqnAgent::UpdateCritic(const std::vector<const Transition*>& batch) {
  HEAD_SCOPE("rl.update_critic");
  nn::ResetTape();  // steady state: the whole update reuses recycled nodes
  const int b = static_cast<int>(batch.size());
  std::vector<const AugmentedState*> states(b);
  std::vector<const AugmentedState*> next_states(b);
  std::vector<int> behaviors(b);
  nn::Tensor params(b, kNumBehaviors);
  for (int i = 0; i < b; ++i) {
    const Transition* t = batch[i];
    states[i] = &t->state;
    next_states[i] = &t->next_state;
    behaviors[i] = t->behavior;
    HEAD_CHECK_EQ(t->params.size(), kNumBehaviors);
    for (int c = 0; c < kNumBehaviors; ++c) {
      params.At(i, c) = t->params[c];
    }
  }

  const bool use_plans = nn::PlansEnabled();

  // TD targets y = r + γ·max_b Q'(s', x'(s'))·(1 − done), all under no-grad:
  // the target networks never receive gradients, so no closures are built.
  nn::Tensor y(b, 1);
  {
    const nn::NoGradGuard no_grad;
    std::shared_ptr<const nn::ExecPlan> plan;
    if (use_plans) {
      std::lock_guard<std::mutex> lock(plan_mu_);
      const auto it = critic_target_plans_.find(b);
      if (it != critic_target_plans_.end()) {
        plan = it->second;
      } else if (critic_target_plans_.size() < kMaxPlansPerSite) {
        nn::PlanCapture capture;
        const nn::Var x_next = x_target_->ForwardBatch(next_states);
        plan =
            capture.Finish({q_target_->ForwardBatch(next_states, x_next)});
        critic_target_plans_.emplace(b, plan);
      }
    }
    nn::Tensor q_next;  // (B×3)
    if (plan != nullptr) {
      std::vector<nn::Tensor> in;
      x_target_->AppendPlanInputsBatch(next_states, &in);
      q_target_->AppendPlanInputsBatch(next_states, &in);
      q_next = *plan->Replay(std::move(in))[0];
    } else {
      const nn::Var x_next = x_target_->ForwardBatch(next_states);
      q_next = q_target_->ForwardBatch(next_states, x_next).value();
    }
    // Raw rowwise-max kernel — no autograd node; this whole block is
    // no-grad and the argmax is never needed.
    const nn::Tensor q_max = nn::RowwiseMax(q_next);
    for (int i = 0; i < b; ++i) {
      y[i] = batch[i]->reward +
             (batch[i]->terminal ? 0.0 : config_.gamma * q_max[i]);
    }
  }

  // One graph for the whole minibatch: Q(s,x) as (B×3), the chosen
  // behavior's value picked per row, ½·mean((Q_b − y)²) as in Eq. (22).
  // The plan for this step carries the recorded backward pass: a replay
  // leaves the minibatch gradient in the Param grads exactly as nn::Backward
  // would, and the optimizer consumes it identically.
  q_opt_.ZeroGrad();
  std::shared_ptr<const nn::ExecPlan> plan;
  bool may_capture = false;
  if (use_plans) {
    std::lock_guard<std::mutex> lock(plan_mu_);
    const auto it = critic_main_plans_.find(b);
    if (it != critic_main_plans_.end()) {
      plan = it->second;
    } else {
      may_capture = critic_main_plans_.size() < kMaxPlansPerSite;
    }
  }
  double loss_val;
  if (plan != nullptr) {
    // Replay slots: the action-parameter matrix (fed to ForwardBatch before
    // the state stacks), the critic's state inputs, the targets y; the
    // selected behaviors travel through the plan's index slot.
    std::vector<nn::Tensor> in;
    in.push_back(std::move(params));
    q_->AppendPlanInputsBatch(states, &in);
    in.push_back(std::move(y));
    loss_val = (*plan->Replay(std::move(in), {&behaviors})[0])[0];
  } else {
    // Capture runs the step eagerly as it records, so this branch IS the
    // eager step — with a plan compiled as a side effect when cacheable.
    std::optional<nn::PlanCapture> capture;
    if (may_capture) capture.emplace();
    const nn::Var q_all =
        q_->ForwardBatch(states, nn::PlanInput(std::move(params)));
    const nn::Var q_b = nn::SelectColumnPerRow(q_all, std::move(behaviors));
    const nn::Var loss = nn::Scale(
        nn::Sum(nn::Square(nn::Sub(q_b, nn::PlanInput(std::move(y))))),
        0.5 / b);
    nn::Backward(loss);
    loss_val = loss.value()[0];
    if (may_capture) {
      std::lock_guard<std::mutex> lock(plan_mu_);
      critic_main_plans_.emplace(b, capture->Finish({loss}));
    }
  }
  const double grad_norm = q_opt_.ClipGradNorm(10.0);
  q_opt_.Step();

  static obs::Histogram& loss_hist = obs::GetHistogram(
      "rl.critic_loss", obs::CachedExponentialBounds(1e-4, 2.0, 28));
  static obs::Histogram& norm_hist = obs::GetHistogram(
      "rl.grad_norm.critic", obs::CachedExponentialBounds(1e-4, 2.0, 28));
  loss_hist.Observe(loss_val);
  norm_hist.Observe(grad_norm);
}

void PdqnAgent::UpdateActor(const std::vector<const Transition*>& batch) {
  HEAD_SCOPE("rl.update_actor");
  nn::ResetTape();  // the critic pass's tape is spent at this point
  const int b = static_cast<int>(batch.size());
  std::vector<const AugmentedState*> states(b);
  for (int i = 0; i < b; ++i) states[i] = &batch[i]->state;

  x_opt_.ZeroGrad();
  q_->ZeroGrad();  // critic grads from this pass are discarded
  std::shared_ptr<const nn::ExecPlan> plan;
  bool may_capture = false;
  if (nn::PlansEnabled()) {
    std::lock_guard<std::mutex> lock(plan_mu_);
    const auto it = actor_plans_.find(b);
    if (it != actor_plans_.end()) {
      plan = it->second;
    } else {
      may_capture = actor_plans_.size() < kMaxPlansPerSite;
    }
  }
  if (plan != nullptr) {
    // Replay slots: the actor's state inputs, then the critic's (the x Var
    // flows between them as a captured graph edge). The recorded backward
    // leaves Eq. (23)'s gradient in the x-net Param grads.
    std::vector<nn::Tensor> in;
    x_->AppendPlanInputsBatch(states, &in);
    q_->AppendPlanInputsBatch(states, &in);
    plan->Replay(std::move(in));
  } else {
    std::optional<nn::PlanCapture> capture;
    if (may_capture) capture.emplace();
    const nn::Var x = x_->ForwardBatch(states);
    const nn::Var q_all = q_->ForwardBatch(states, x);
    const nn::Var loss = nn::Scale(nn::Sum(q_all), -1.0 / b);  // Eq. (23)
    nn::Backward(loss);
    if (may_capture) {
      std::lock_guard<std::mutex> lock(plan_mu_);
      actor_plans_.emplace(b, capture->Finish({loss}));
    }
  }
  const double grad_norm = x_opt_.ClipGradNorm(10.0);
  x_opt_.Step();

  static obs::Histogram& norm_hist = obs::GetHistogram(
      "rl.grad_norm.actor", obs::CachedExponentialBounds(1e-4, 2.0, 28));
  norm_hist.Observe(grad_norm);
}

void PdqnAgent::Update(Rng& rng) {
  if (buffer_.size() < static_cast<size_t>(config_.warmup_transitions)) {
    return;
  }
  ++update_calls_;
  if (config_.update_every > 1 &&
      update_calls_ % config_.update_every != 0) {
    return;
  }
  bool train_q = true;
  bool train_x = true;
  if (config_.alternate_period > 0) {
    const long phase =
        (update_calls_ / config_.alternate_period) % 2;
    train_q = phase == 0;
    train_x = phase == 1;
  }
  HEAD_SCOPE("rl.update");
  static obs::Counter& updates = obs::GetCounter("rl.updates");
  static obs::Gauge& replay_fill = obs::GetGauge("rl.replay_fill");
  updates.Add();
  replay_fill.Set(static_cast<double>(buffer_.size()) /
                  static_cast<double>(config_.buffer_capacity));

  const std::vector<const Transition*> batch = [&] {
    HEAD_SCOPE("rl.replay_sample");
    return buffer_.Sample(config_.batch_size, rng);
  }();
  if (train_q) UpdateCritic(batch);
  if (train_x) UpdateActor(batch);
  x_target_->SoftUpdateFrom(*x_, config_.tau);
  q_target_->SoftUpdateFrom(*q_, config_.tau);
}

void PdqnAgent::ScaleLearningRate(double factor) {
  q_opt_.set_learning_rate(q_opt_.learning_rate() * factor);
  x_opt_.set_learning_rate(x_opt_.learning_rate() * factor);
}

void PdqnAgent::SyncTargets() {
  x_target_->CopyParamsFrom(*x_);
  q_target_->CopyParamsFrom(*q_);
}

// Diagnostic accessors stay tape-neutral: callers may hold live Vars from an
// open region (e.g. parity tests comparing against a batched forward), so no
// ResetTape here — these nodes recycle at the next region entry.
nn::Tensor PdqnAgent::ActionParams(const AugmentedState& s) const {
  const nn::NoGradGuard no_grad;
  return x_->Forward(s).value();
}

nn::Tensor PdqnAgent::QValues(const AugmentedState& s,
                              const nn::Tensor& x) const {
  const nn::NoGradGuard no_grad;
  return q_->Forward(s, nn::Var::Constant(x)).value();
}

std::unique_ptr<PdqnAgent> MakeBpDqnAgent(const PdqnConfig& config, Rng& rng) {
  return std::make_unique<PdqnAgent>(
      "BP-DQN", config,
      [&config](Rng& r) {
        return std::make_unique<BpXNet>(config.hidden, config.a_max, r);
      },
      [&config](Rng& r) { return std::make_unique<BpQNet>(config.hidden, r); },
      rng);
}

std::unique_ptr<PdqnAgent> MakePDqnAgent(const PdqnConfig& config, Rng& rng) {
  return std::make_unique<PdqnAgent>(
      "P-DQN", config,
      [&config](Rng& r) {
        return std::make_unique<FlatXNet>(config.hidden, config.a_max, r);
      },
      [&config](Rng& r) {
        return std::make_unique<FlatQNet>(config.hidden, r);
      },
      rng);
}

std::unique_ptr<PdqnAgent> MakePQpAgent(PdqnConfig config, Rng& rng) {
  if (config.alternate_period <= 0) config.alternate_period = 50;
  auto agent = std::make_unique<PdqnAgent>(
      "P-QP", config,
      [config](Rng& r) {
        return std::make_unique<FlatXNet>(config.hidden, config.a_max, r);
      },
      [config](Rng& r) {
        return std::make_unique<FlatQNet>(config.hidden, r);
      },
      rng);
  return agent;
}

}  // namespace head::rl
