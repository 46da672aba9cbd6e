// Parity between the one minibatch pass every network runs and a per-sample
// reference kept here as the oracle: identically-seeded learners must end up
// with the same parameters (within fp accumulation-order noise, ≪ 1e-9)
// whether a minibatch trains as one graph or as one graph per sample through
// the networks' public B=1 forward.
#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "nn/optimizer.h"
#include "perception/lst_gat.h"
#include "perception/trainer.h"
#include "rl/nets.h"
#include "rl/pdqn_agent.h"
#include "rl/replay_buffer.h"

namespace head {
namespace {

constexpr double kTol = 1e-9;

void ExpectParamsNear(const std::vector<nn::Var>& a,
                      const std::vector<nn::Var>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t p = 0; p < a.size(); ++p) {
    const nn::Tensor& ta = a[p].value();
    const nn::Tensor& tb = b[p].value();
    ASSERT_EQ(ta.size(), tb.size());
    for (int i = 0; i < ta.size(); ++i) {
      ASSERT_NEAR(ta[i], tb[i], kTol) << "param " << p << " element " << i;
    }
  }
}

rl::AugmentedState RandomState(Rng& rng) {
  rl::AugmentedState s;
  s.h = nn::Tensor::Uniform(rl::kStateHRows, rl::kStateCols, -1.0, 1.0, rng);
  s.f = nn::Tensor::Uniform(rl::kStateFRows, rl::kStateCols, -1.0, 1.0, rng);
  return s;
}

// ---- P-DQN family ----

/// The per-transition form of PdqnAgent's update: Eqs. (22)/(23) summed
/// over one graph per transition, each through the nets' B=1 Forward. It
/// builds its nets, optimizers, replay buffer and target copies in the
/// agent's order, so equal seeds give equal starting points and minibatches.
/// Covers the agent's default schedule (update_every 1, no alternation).
class PerSampleLearner {
 public:
  PerSampleLearner(const rl::PdqnConfig& config,
                   const rl::PdqnAgent::XFactory& make_x,
                   const rl::PdqnAgent::QFactory& make_q, Rng& init)
      : config_(config),
        x_(make_x(init)),
        x_target_(make_x(init)),
        q_(make_q(init)),
        q_target_(make_q(init)),
        q_opt_(q_->Params(), config.learning_rate),
        x_opt_(x_->Params(), config.learning_rate * config.actor_lr_scale),
        buffer_(config.buffer_capacity) {
    x_target_->CopyParamsFrom(*x_);
    q_target_->CopyParamsFrom(*q_);
  }

  void Remember(const rl::AugmentedState& state,
                const rl::AgentAction& action, double reward,
                const rl::AugmentedState& next_state, bool terminal) {
    rl::Transition t;
    t.state = state;
    t.behavior = action.behavior;
    t.params = action.params;
    t.reward = reward;
    t.next_state = next_state;
    t.terminal = terminal;
    const int copies =
        terminal ? std::max(1, config_.terminal_replay_boost) : 1;
    for (int i = 0; i < copies; ++i) buffer_.Push(t);
  }

  void Update(Rng& rng) {
    if (buffer_.size() < static_cast<size_t>(config_.warmup_transitions)) {
      return;
    }
    const std::vector<const rl::Transition*> batch =
        buffer_.Sample(config_.batch_size, rng);
    UpdateCritic(batch);
    UpdateActor(batch);
    x_target_->SoftUpdateFrom(*x_, config_.tau);
    q_target_->SoftUpdateFrom(*q_, config_.tau);
  }

  const rl::XNet& x_net() const { return *x_; }
  const rl::QNet& q_net() const { return *q_; }

 private:
  void UpdateCritic(const std::vector<const rl::Transition*>& batch) {
    nn::ResetTape();
    q_opt_.ZeroGrad();
    nn::Var loss;
    for (const rl::Transition* t : batch) {
      double y = t->reward;
      if (!t->terminal) {
        const nn::NoGradGuard no_grad;
        const nn::Tensor q_next =
            q_target_->Forward(t->next_state, x_target_->Forward(t->next_state))
                .value();
        double q_max = q_next[0];
        for (int c = 1; c < q_next.size(); ++c) {
          q_max = std::max(q_max, q_next[c]);
        }
        y += config_.gamma * q_max;
      }
      const nn::Var q_all =
          q_->Forward(t->state, nn::Var::Constant(t->params));
      const nn::Var q_b = nn::SliceCols(q_all, t->behavior, t->behavior + 1);
      const nn::Var term = nn::Scale(nn::Square(nn::AddScalar(q_b, -y)), 0.5);
      loss = loss.defined() ? nn::Add(loss, term) : term;
    }
    nn::Backward(nn::Scale(loss, 1.0 / batch.size()));
    q_opt_.ClipGradNorm(10.0);
    q_opt_.Step();
  }

  void UpdateActor(const std::vector<const rl::Transition*>& batch) {
    nn::ResetTape();
    x_opt_.ZeroGrad();
    q_->ZeroGrad();  // critic grads from this pass are discarded
    nn::Var loss;
    for (const rl::Transition* t : batch) {
      const nn::Var term =
          nn::Scale(nn::Sum(q_->Forward(t->state, x_->Forward(t->state))),
                    -1.0);
      loss = loss.defined() ? nn::Add(loss, term) : term;
    }
    nn::Backward(nn::Scale(loss, 1.0 / batch.size()));
    x_opt_.ClipGradNorm(10.0);
    x_opt_.Step();
  }

  rl::PdqnConfig config_;
  std::unique_ptr<rl::XNet> x_;
  std::unique_ptr<rl::XNet> x_target_;
  std::unique_ptr<rl::QNet> q_;
  std::unique_ptr<rl::QNet> q_target_;
  nn::Adam q_opt_;
  nn::Adam x_opt_;
  rl::ReplayBuffer buffer_;
};

constexpr int kHidden = 16;
constexpr double kAMax = rl::PdqnConfig{}.a_max;

using MakeAgent =
    std::function<std::unique_ptr<rl::PdqnAgent>(const rl::PdqnConfig&, Rng&)>;

// Trains the agent and the per-sample reference on identical transitions
// with identical rng streams and requires parameter agreement.
void ExpectUpdateParity(const MakeAgent& make_agent,
                        const rl::PdqnAgent::XFactory& make_x,
                        const rl::PdqnAgent::QFactory& make_q) {
  rl::PdqnConfig config;
  config.hidden = kHidden;
  config.batch_size = 8;
  config.warmup_transitions = 8;
  config.buffer_capacity = 128;

  Rng init_a(11);
  Rng init_b(11);
  auto agent = make_agent(config, init_a);
  PerSampleLearner reference(config, make_x, make_q, init_b);

  Rng data(21);
  Rng rng_a(31);
  Rng rng_b(31);
  for (int i = 0; i < 40; ++i) {
    const rl::AugmentedState s = RandomState(data);
    const rl::AugmentedState s2 = RandomState(data);
    rl::AgentAction action;
    action.behavior = static_cast<int>(data.UniformInt(0, 2));
    action.params = nn::Tensor::Uniform(1, rl::kNumBehaviors, -3.0, 3.0, data);
    action.maneuver.lane_change = rl::BehaviorToLaneChange(action.behavior);
    action.maneuver.accel_mps2 = action.params[action.behavior];
    const double reward = data.Uniform(-1.0, 1.0);
    const bool terminal = i % 7 == 0;
    agent->Remember(s, action, reward, s2, terminal);
    reference.Remember(s, action, reward, s2, terminal);
    agent->Update(rng_a);
    reference.Update(rng_b);
  }

  ExpectParamsNear(agent->x_net().Params(), reference.x_net().Params());
  ExpectParamsNear(agent->q_net().Params(), reference.q_net().Params());
}

TEST(RlBatchedParityTest, BpDqnUpdatesMatchPerSample) {
  ExpectUpdateParity(
      [](const rl::PdqnConfig& c, Rng& rng) {
        return rl::MakeBpDqnAgent(c, rng);
      },
      [](Rng& r) { return std::make_unique<rl::BpXNet>(kHidden, kAMax, r); },
      [](Rng& r) { return std::make_unique<rl::BpQNet>(kHidden, r); });
}

TEST(RlBatchedParityTest, PDqnUpdatesMatchPerSample) {
  ExpectUpdateParity(
      [](const rl::PdqnConfig& c, Rng& rng) {
        return rl::MakePDqnAgent(c, rng);
      },
      [](Rng& r) { return std::make_unique<rl::FlatXNet>(kHidden, kAMax, r); },
      [](Rng& r) { return std::make_unique<rl::FlatQNet>(kHidden, r); });
}

TEST(RlBatchedParityTest, BatchedForwardMatchesPerSampleRows) {
  // BP-DQN's branched nets and P-DQN's flat ones: row i of a B=5 pass must
  // equal the B=1 pass on state i.
  const std::vector<MakeAgent> makers = {
      [](const rl::PdqnConfig& c, Rng& rng) {
        return rl::MakeBpDqnAgent(c, rng);
      },
      [](const rl::PdqnConfig& c, Rng& rng) {
        return rl::MakePDqnAgent(c, rng);
      }};
  for (const MakeAgent& make : makers) {
    Rng init(5);
    rl::PdqnConfig config;
    config.hidden = kHidden;
    auto agent = make(config, init);
    SCOPED_TRACE(agent->name());
    Rng data(6);
    std::vector<rl::AugmentedState> states;
    for (int i = 0; i < 5; ++i) states.push_back(RandomState(data));
    std::vector<const rl::AugmentedState*> batch;
    for (const auto& s : states) batch.push_back(&s);

    const nn::Var x_batch = agent->x_net().ForwardBatch(batch);
    const nn::Var q_batch = agent->q_net().ForwardBatch(batch, x_batch);
    ASSERT_EQ(x_batch.value().rows(), 5);
    ASSERT_EQ(q_batch.value().rows(), 5);
    for (int i = 0; i < 5; ++i) {
      const nn::Tensor x_i = agent->ActionParams(states[i]);
      const nn::Tensor q_i = agent->QValues(states[i], x_i);
      for (int c = 0; c < rl::kNumBehaviors; ++c) {
        EXPECT_DOUBLE_EQ(x_batch.value().At(i, c), x_i.At(0, c));
        EXPECT_DOUBLE_EQ(q_batch.value().At(i, c), q_i.At(0, c));
      }
    }
  }
}

// ---- LST-GAT ----

perception::PredictionSample RandomSample(Rng& rng, int z, bool any_valid) {
  perception::PredictionSample s;
  s.graph.steps.resize(z);
  for (auto& step : s.graph.steps) {
    for (auto& target : step.feat) {
      for (auto& node : target) {
        for (double& f : node) f = rng.Uniform(-1.0, 1.0);
      }
    }
  }
  for (int i = 0; i < perception::kNumAreas; ++i) {
    for (int c = 0; c < 3; ++c) {
      s.graph.target_rel_current[i][c] = rng.Uniform(-1.0, 1.0);
      s.truth.value[i][c] = rng.Uniform(-1.0, 1.0);
    }
    s.truth.valid[i] = any_valid && rng.Uniform(0.0, 1.0) < 0.7;
  }
  return s;
}

perception::LstGatConfig SmallLstGatConfig() {
  perception::LstGatConfig config;
  config.d_phi1 = 8;
  config.d_phi3 = 8;
  config.d_lstm = 8;
  return config;
}

TEST(PerceptionBatchedParityTest, LstGatBatchedForwardMatchesPerSample) {
  Rng init(9);
  perception::LstGat model(SmallLstGatConfig(), init);
  Rng data(10);
  std::vector<perception::PredictionSample> samples;
  for (int i = 0; i < 3; ++i) samples.push_back(RandomSample(data, 4, true));
  std::vector<const perception::StGraph*> graphs;
  for (const auto& s : samples) graphs.push_back(&s.graph);

  const nn::Var batch = model.ForwardScaledBatch(graphs);
  ASSERT_EQ(batch.value().rows(), 3 * perception::kNumAreas);
  for (int s = 0; s < 3; ++s) {
    const nn::Var single = model.ForwardScaled(samples[s].graph);
    for (int i = 0; i < perception::kNumAreas; ++i) {
      for (int c = 0; c < 3; ++c) {
        EXPECT_DOUBLE_EQ(
            batch.value().At(s * perception::kNumAreas + i, c),
            single.value().At(i, c));
      }
    }
  }
}

TEST(PerceptionBatchedParityTest, MixedDepthBatchFallsBackCorrectly) {
  Rng init(9);
  perception::LstGat model(SmallLstGatConfig(), init);
  Rng data(12);
  const perception::PredictionSample a = RandomSample(data, 3, true);
  const perception::PredictionSample b = RandomSample(data, 5, true);
  const nn::Var batch = model.ForwardScaledBatch({&a.graph, &b.graph});
  ASSERT_EQ(batch.value().rows(), 2 * perception::kNumAreas);
  const nn::Var sa = model.ForwardScaled(a.graph);
  const nn::Var sb = model.ForwardScaled(b.graph);
  for (int i = 0; i < perception::kNumAreas; ++i) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(batch.value().At(i, c), sa.value().At(i, c));
      EXPECT_DOUBLE_EQ(batch.value().At(perception::kNumAreas + i, c),
                       sb.value().At(i, c));
    }
  }
}

/// Eq. (14)'s masked scaled MSE of one sample through the B=1 forward.
nn::Var SampleLoss(const perception::StatePredictor& model,
                   const perception::PredictionSample& s) {
  int valid = 0;
  for (bool v : s.truth.valid) valid += v ? 1 : 0;
  if (valid == 0) return nn::Var::Constant(nn::Tensor::Zeros(1, 1));
  const nn::Var pred = model.ForwardScaled(s.graph);
  const nn::Var truth = nn::Var::Constant(
      perception::ScaledResidualTruth(s.graph, s.truth, model.scale()));
  const nn::Var mask = nn::Var::Constant(perception::TruthMask(s.truth));
  const nn::Var err = nn::Mul(nn::Sub(pred, truth), mask);
  return nn::Scale(nn::Sum(nn::Square(err)), 1.0 / (3.0 * valid));
}

/// TrainPredictor's schedule (shuffle, minibatches, Adam, clipping) with
/// one graph per sample; returns the per-epoch mean losses.
std::vector<double> TrainPerSample(
    perception::StatePredictor& model,
    const std::vector<perception::PredictionSample>& train,
    const perception::PredictionTrainConfig& config) {
  nn::Adam opt(model.Params(), config.learning_rate);
  Rng rng(config.shuffle_seed);
  std::vector<int> order(train.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> epoch_losses;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), rng.engine());
    double epoch_loss = 0.0;
    for (size_t b = 0; b < order.size(); b += config.batch_size) {
      const size_t end = std::min(order.size(), b + config.batch_size);
      nn::ResetTape();
      opt.ZeroGrad();
      nn::Var loss = SampleLoss(model, train[order[b]]);
      for (size_t k = b + 1; k < end; ++k) {
        loss = nn::Add(loss, SampleLoss(model, train[order[k]]));
      }
      loss = nn::Scale(loss, 1.0 / (end - b));
      epoch_loss += loss.value()[0] * (end - b);
      nn::Backward(loss);
      opt.ClipGradNorm(5.0);
      opt.Step();
    }
    epoch_losses.push_back(epoch_loss / train.size());
  }
  return epoch_losses;
}

TEST(PerceptionBatchedParityTest, TrainingMatchesPerSamplePath) {
  Rng init_a(17);
  Rng init_b(17);
  perception::LstGat model_a(SmallLstGatConfig(), init_a);
  perception::LstGat model_b(SmallLstGatConfig(), init_b);

  Rng data(18);
  std::vector<perception::PredictionSample> train;
  for (int i = 0; i < 11; ++i) {
    // Include one fully-masked sample: both paths must give it zero loss
    // and zero gradient.
    train.push_back(RandomSample(data, 3, /*any_valid=*/i != 4));
  }

  perception::PredictionTrainConfig config;
  config.epochs = 3;
  config.batch_size = 4;  // uneven final batch of 3

  const auto result_a = perception::TrainPredictor(model_a, train, config);
  const std::vector<double> losses_b = TrainPerSample(model_b, train, config);

  ASSERT_EQ(result_a.epoch_losses.size(), losses_b.size());
  for (size_t e = 0; e < losses_b.size(); ++e) {
    EXPECT_NEAR(result_a.epoch_losses[e], losses_b[e], kTol);
  }
  ExpectParamsNear(model_a.Params(), model_b.Params());
}

}  // namespace
}  // namespace head
