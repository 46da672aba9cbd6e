// Static execution plans (ISSUE 9): a captured step replayed through an
// nn::ExecPlan must be bitwise identical to the eager arena path — for the
// raw capture/replay primitive, for a full BP-DQN update, and for an
// LST-GAT training epoch and Predict — under fast_math on and off; batches
// the plan machinery cannot serve (mixed history depths) must fall back to
// eager silently; steady-state replay must allocate nothing; and a
// forward-only plan must be safe to replay concurrently from EnvPool
// workers (the TSan stage checks the data-race half of that claim).
//
// The parity tests run their eager side under nn::ScopedPlansOff, so they
// stay meaningful under HEAD_PLANS=0 as well: both sides then run eagerly
// and the suite degenerates to eager-vs-eager self-consistency.
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/arena.h"
#include "nn/autograd.h"
#include "nn/kernels/simd.h"
#include "nn/plan.h"
#include "nn/tensor.h"
#include "parallel/env_pool.h"
#include "parallel/thread_pool.h"
#include "perception/lst_gat.h"
#include "perception/trainer.h"
#include "rl/env.h"
#include "rl/pdqn_agent.h"

namespace head {
namespace {

void ExpectBitwiseEqual(const std::vector<nn::Tensor>& a,
                        const std::vector<nn::Tensor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t p = 0; p < a.size(); ++p) {
    ASSERT_EQ(a[p].rows(), b[p].rows());
    ASSERT_EQ(a[p].cols(), b[p].cols());
    for (int i = 0; i < a[p].size(); ++i) {
      EXPECT_EQ(a[p][i], b[p][i]) << "param " << p << " element " << i;
    }
  }
}

/// Restores the process-wide fast_math switch on scope exit.
class FastMathScope {
 public:
  explicit FastMathScope(bool enabled)
      : prev_(nn::kernels::FastMathEnabled()) {
    nn::kernels::SetFastMath(enabled);
  }
  ~FastMathScope() { nn::kernels::SetFastMath(prev_); }

 private:
  bool prev_;
};

// ---- Raw capture/replay primitive ----

TEST(ExecPlanTest, ForwardReplayMatchesEagerBitwise) {
  Rng rng(5);
  const nn::Var w = nn::Var::Param(nn::Tensor::XavierUniform(4, 3, rng));
  const nn::NoGradGuard no_grad;

  std::shared_ptr<const nn::ExecPlan> plan;
  {
    nn::ResetTape();
    nn::PlanCapture capture;
    plan = capture.Finish(
        {nn::Tanh(nn::MatMul(nn::PlanInput(nn::Tensor::Zeros(2, 4)), w))});
  }
  EXPECT_EQ(plan->num_inputs(), 1u);
  EXPECT_FALSE(plan->has_backward());
  EXPECT_GT(plan->num_nodes(), 0u);

  Rng data(6);
  for (int i = 0; i < 4; ++i) {
    const nn::Tensor x = nn::Tensor::Uniform(2, 4, -1.0, 1.0, data);
    const nn::Tensor replayed = *plan->Replay({x})[0];
    nn::ResetTape();
    const nn::Tensor eager =
        nn::Tanh(nn::MatMul(nn::Var::Constant(x), w)).value();
    ASSERT_EQ(replayed.size(), eager.size());
    for (int e = 0; e < eager.size(); ++e) EXPECT_EQ(replayed[e], eager[e]);
  }
}

TEST(ExecPlanTest, ReplayedBackwardMatchesEagerGradients) {
  Rng rng(7);
  nn::Var w = nn::Var::Param(nn::Tensor::XavierUniform(4, 3, rng));

  std::shared_ptr<const nn::ExecPlan> plan;
  {
    nn::ResetTape();
    w.mutable_grad() = nn::Tensor();
    nn::PlanCapture capture;
    const nn::Var loss = nn::Scale(
        nn::Sum(nn::Square(
            nn::Tanh(nn::MatMul(nn::PlanInput(nn::Tensor::Zeros(2, 4)), w)))),
        0.5);
    nn::Backward(loss);
    plan = capture.Finish({loss});
  }
  ASSERT_TRUE(plan->has_backward());

  Rng data(8);
  for (int i = 0; i < 3; ++i) {
    const nn::Tensor x = nn::Tensor::Uniform(2, 4, -1.0, 1.0, data);

    nn::ResetTape();
    w.mutable_grad() = nn::Tensor();
    const nn::Var eager_loss = nn::Scale(
        nn::Sum(nn::Square(nn::Tanh(nn::MatMul(nn::Var::Constant(x), w)))),
        0.5);
    nn::Backward(eager_loss);
    const double eager_value = eager_loss.value()[0];
    const nn::Tensor eager_grad = w.grad();

    w.mutable_grad() = nn::Tensor();
    const double replayed_value = (*plan->Replay({x})[0])[0];
    EXPECT_EQ(replayed_value, eager_value);
    const nn::Tensor& replayed_grad = w.grad();
    ASSERT_EQ(replayed_grad.size(), eager_grad.size());
    for (int e = 0; e < eager_grad.size(); ++e) {
      EXPECT_EQ(replayed_grad[e], eager_grad[e]);
    }
  }
}

TEST(ExecPlanTest, SteadyStateReplayAllocatesNothing) {
  Rng rng(9);
  const nn::Var w = nn::Var::Param(nn::Tensor::XavierUniform(8, 8, rng));
  const nn::NoGradGuard no_grad;
  nn::ResetTape();
  std::shared_ptr<const nn::ExecPlan> plan;
  {
    nn::PlanCapture capture;
    plan = capture.Finish(
        {nn::Relu(nn::MatMul(nn::PlanInput(nn::Tensor::Zeros(8, 8)), w))});
  }
  Rng data(10);
  const nn::Tensor x = nn::Tensor::Uniform(8, 8, -1.0, 1.0, data);
  for (int i = 0; i < 3; ++i) plan->Replay({x});  // warm the pool + context
  const uint64_t before = nn::AllocEvents();
  for (int i = 0; i < 5; ++i) plan->Replay({x});
  EXPECT_EQ(nn::AllocEvents(), before)
      << "replay must not create arena nodes or miss the tensor pool";
}

TEST(ExecPlanTest, WorkerReplayContextDoesNotPinDroppedPlan) {
  // A pool worker caches a replay context per plan. It must not keep a plan
  // alive once the plan's last owner (a torn-down model) drops it: the plan
  // is freed, and the worker sweeps the dead context at its next miss.
  Rng rng(12);
  const nn::Var w = nn::Var::Param(nn::Tensor::XavierUniform(4, 4, rng));
  const nn::NoGradGuard no_grad;
  const auto capture_plan = [&w] {
    nn::ResetTape();
    nn::PlanCapture capture;
    return capture.Finish(
        {nn::Relu(nn::MatMul(nn::PlanInput(nn::Tensor::Zeros(1, 4)), w))});
  };
  parallel::ThreadPool pool(2);
  std::shared_ptr<const nn::ExecPlan> plan = capture_plan();
  const std::weak_ptr<const nn::ExecPlan> watch = plan;
  pool.Submit([&plan] { plan->Replay({nn::Tensor::Zeros(1, 4)}); }).get();
  plan.reset();  // the last owner goes away

  // The next miss on a worker: a plan it has never replayed.
  const std::shared_ptr<const nn::ExecPlan> next = capture_plan();
  pool.Submit([&next] { next->Replay({nn::Tensor::Zeros(1, 4)}); }).get();
  EXPECT_TRUE(watch.expired())
      << "a worker's replay context still owns the dropped plan";
}

// ---- Full BP-DQN update parity ----

rl::AugmentedState RandomState(Rng& rng) {
  rl::AugmentedState s;
  s.h = nn::Tensor::Uniform(rl::kStateHRows, rl::kStateCols, -1.0, 1.0, rng);
  s.f = nn::Tensor::Uniform(rl::kStateFRows, rl::kStateCols, -1.0, 1.0, rng);
  return s;
}

/// Several BP-DQN updates (first captures, the rest replay) with fixed
/// seeds; returns every parameter tensor afterwards.
std::vector<nn::Tensor> BpDqnParams(bool plans) {
  const nn::ScopedPlansOff plans_off(/*active=*/!plans);
  rl::PdqnConfig config;
  config.hidden = 16;
  config.batch_size = 8;
  config.warmup_transitions = 8;
  config.buffer_capacity = 64;
  Rng init(11);
  auto agent = rl::MakeBpDqnAgent(config, init);
  Rng data(21);
  for (int i = 0; i < 16; ++i) {
    const rl::AugmentedState s = RandomState(data);
    const rl::AugmentedState s2 = RandomState(data);
    rl::AgentAction action;
    action.behavior = static_cast<int>(data.UniformInt(0, 2));
    action.params = nn::Tensor::Uniform(1, rl::kNumBehaviors, -3.0, 3.0, data);
    action.maneuver.lane_change = rl::BehaviorToLaneChange(action.behavior);
    action.maneuver.accel_mps2 = action.params[action.behavior];
    agent->Remember(s, action, data.Uniform(-1.0, 1.0), s2, i % 5 == 0);
  }
  Rng rng(31);
  for (int u = 0; u < 4; ++u) agent->Update(rng);
  std::vector<nn::Tensor> out;
  for (const nn::Var& p : agent->x_net().Params()) out.push_back(p.value());
  for (const nn::Var& p : agent->q_net().Params()) out.push_back(p.value());
  return out;
}

TEST(PlanParityTest, BpDqnUpdatesBitwiseEqualPlansOnVsOff) {
  for (const bool fast_math : {false, true}) {
    FastMathScope scope(fast_math);
    ExpectBitwiseEqual(BpDqnParams(/*plans=*/true),
                       BpDqnParams(/*plans=*/false));
  }
}

TEST(PlanParityTest, BpDqnGreedyActBitwiseEqualPlansOnVsOff) {
  rl::PdqnConfig config;
  config.hidden = 16;
  Rng init_a(11);
  Rng init_b(11);
  auto with_plans = rl::MakeBpDqnAgent(config, init_a);
  auto eager = rl::MakeBpDqnAgent(config, init_b);
  Rng data(41);
  Rng rng_a(3);
  Rng rng_b(3);
  for (int i = 0; i < 6; ++i) {  // first iteration captures, the rest replay
    const rl::AugmentedState s = RandomState(data);
    const rl::AgentAction a = with_plans->Act(s, /*epsilon=*/0.0, rng_a);
    const rl::AgentAction b = [&] {
      const nn::ScopedPlansOff off;
      return eager->Act(s, /*epsilon=*/0.0, rng_b);
    }();
    EXPECT_EQ(a.behavior, b.behavior) << "step " << i;
    ASSERT_EQ(a.params.size(), b.params.size());
    for (int c = 0; c < a.params.size(); ++c) {
      EXPECT_EQ(a.params[c], b.params[c]) << "step " << i << " param " << c;
    }
  }
}

// ---- LST-GAT epoch + Predict parity ----

perception::PredictionSample RandomSample(Rng& rng, int z) {
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
    s.truth.valid[i] = rng.Uniform(0.0, 1.0) < 0.7;
  }
  return s;
}

perception::LstGat SmallLstGat(uint64_t seed) {
  perception::LstGatConfig net_config;
  net_config.d_phi1 = 8;
  net_config.d_phi3 = 8;
  net_config.d_lstm = 8;
  Rng init(seed);
  return perception::LstGat(net_config, init);
}

/// Two LST-GAT training epochs (epoch 1 captures each batch shape, epoch 2
/// replays) with fixed seeds; `mixed_depth` plants samples whose history
/// depth differs, forcing every batch onto the eager fallback.
std::vector<nn::Tensor> LstGatParams(bool plans, bool mixed_depth) {
  const nn::ScopedPlansOff plans_off(/*active=*/!plans);
  perception::LstGat model = SmallLstGat(17);
  Rng data(18);
  std::vector<perception::PredictionSample> train;
  for (int i = 0; i < 6; ++i) {
    train.push_back(RandomSample(data, mixed_depth && i % 2 == 1 ? 4 : 3));
  }
  perception::PredictionTrainConfig config;
  config.epochs = 2;
  config.batch_size = 3;
  perception::TrainPredictor(model, train, config);
  std::vector<nn::Tensor> out;
  for (const nn::Var& p : model.Params()) out.push_back(p.value());
  return out;
}

TEST(PlanParityTest, LstGatEpochBitwiseEqualPlansOnVsOff) {
  for (const bool fast_math : {false, true}) {
    FastMathScope scope(fast_math);
    ExpectBitwiseEqual(LstGatParams(/*plans=*/true, false),
                       LstGatParams(/*plans=*/false, false));
  }
}

TEST(PlanParityTest, MixedDepthBatchesFallBackToEagerBitwise) {
  // With mixed history depths no batch is plan-eligible; the plans-on run
  // must silently take the eager path and match the plans-off run exactly.
  ExpectBitwiseEqual(LstGatParams(/*plans=*/true, true),
                     LstGatParams(/*plans=*/false, true));
}

TEST(PlanParityTest, SharedPlanCachePersistsAcrossCallsBitwise) {
  // A caller-owned PredictorPlanCache carries compiled plans from one
  // TrainPredictor call into the next: the second call must replay (not
  // recapture) and still match a cache-less plans-on run bitwise.
  const auto run = [](perception::PredictorPlanCache* cache) {
    perception::LstGat model = SmallLstGat(17);
    Rng data(18);
    std::vector<perception::PredictionSample> train;
    for (int i = 0; i < 6; ++i) train.push_back(RandomSample(data, 3));
    perception::PredictionTrainConfig config;
    config.epochs = 1;
    config.batch_size = 3;
    config.plan_cache = cache;
    perception::TrainPredictor(model, train, config);
    perception::TrainPredictor(model, train, config);
    std::vector<nn::Tensor> out;
    for (const nn::Var& p : model.Params()) out.push_back(p.value());
    return out;
  };
  perception::PredictorPlanCache cache;
  const std::vector<nn::Tensor> shared = run(&cache);
  if (nn::PlansEnabled()) {
    EXPECT_FALSE(cache.plans.empty());
  }
  ExpectBitwiseEqual(shared, run(nullptr));
}

TEST(PlanParityTest, PredictBitwiseEqualPlansOnVsOffAcrossDepths) {
  perception::LstGat with_plans = SmallLstGat(17);
  perception::LstGat eager = SmallLstGat(17);
  Rng data(19);
  // Repeats per depth exercise replay; two depths exercise the per-z cache.
  for (const int z : {3, 4, 3}) {
    for (int i = 0; i < 2; ++i) {
      const perception::PredictionSample s = RandomSample(data, z);
      const perception::Prediction a = with_plans.Predict(s.graph);
      const perception::Prediction b = [&] {
        const nn::ScopedPlansOff off;
        return eager.Predict(s.graph);
      }();
      for (int t = 0; t < perception::kNumAreas; ++t) {
        EXPECT_EQ(a[t].d_lat_m, b[t].d_lat_m) << "z=" << z << " target " << t;
        EXPECT_EQ(a[t].d_lon_m, b[t].d_lon_m) << "z=" << z << " target " << t;
        EXPECT_EQ(a[t].v_rel_mps, b[t].v_rel_mps)
            << "z=" << z << " target " << t;
      }
    }
  }
}

// ---- Concurrent replay from EnvPool workers ----

rl::EnvConfig SmallEnv() {
  rl::EnvConfig c;
  c.sim.road.length_m = 400.0;
  c.sim.spawn.back_margin_m = 120.0;
  c.sim.spawn.front_margin_m = 120.0;
  c.use_prediction = false;
  return c;
}

std::vector<parallel::EnvPool::EpisodeResult> RolloutResults(bool plans) {
  // Process-wide, so the EnvPool workers' Act calls see it too.
  const nn::ScopedPlansOff plans_off(/*active=*/!plans);
  rl::PdqnConfig config;
  config.hidden = 16;
  Rng rng(77);
  auto agent = rl::MakeBpDqnAgent(config, rng);
  parallel::ThreadPool pool(4);
  parallel::EnvPool envs(
      4,
      [](int) {
        return std::make_unique<rl::DrivingEnv>(SmallEnv(), nullptr, 1);
      },
      &pool);
  parallel::EnvPool::RolloutOptions opts;
  opts.seed_base = 55;
  opts.max_steps_per_episode = 40;
  // Greedy episodes: every Act goes through the critic, so both shared Act
  // plans replay concurrently on all four workers.
  return envs.RunEpisodes(*agent, 0, 8, opts);
}

TEST(PlanConcurrencyTest, SharedActPlansAreImmutableUnderEnvPoolReplay) {
  const auto with_plans = RolloutResults(/*plans=*/true);
  const auto eager = RolloutResults(/*plans=*/false);
  ASSERT_EQ(with_plans.size(), eager.size());
  for (size_t i = 0; i < eager.size(); ++i) {
    EXPECT_EQ(with_plans[i].steps, eager[i].steps) << "episode " << i;
    EXPECT_EQ(with_plans[i].reward_sum, eager[i].reward_sum)
        << "episode " << i;
    EXPECT_EQ(with_plans[i].collision, eager[i].collision) << "episode " << i;
  }
}

// ---- Agent steady-state allocation ----

TEST(PlanAllocTest, SteadyStateAgentUpdateAllocatesNothing) {
  rl::PdqnConfig config;
  config.hidden = 16;
  config.batch_size = 8;
  config.warmup_transitions = 8;
  config.buffer_capacity = 64;
  Rng init(11);
  auto agent = rl::MakeBpDqnAgent(config, init);
  Rng data(21);
  for (int i = 0; i < 16; ++i) {
    const rl::AugmentedState s = RandomState(data);
    const rl::AugmentedState s2 = RandomState(data);
    rl::AgentAction action;
    action.behavior = static_cast<int>(data.UniformInt(0, 2));
    action.params = nn::Tensor::Uniform(1, rl::kNumBehaviors, -3.0, 3.0, data);
    action.maneuver.lane_change = rl::BehaviorToLaneChange(action.behavior);
    action.maneuver.accel_mps2 = action.params[action.behavior];
    agent->Remember(s, action, data.Uniform(-1.0, 1.0), s2, i % 5 == 0);
  }
  Rng rng(31);
  for (int u = 0; u < 4; ++u) agent->Update(rng);  // capture + warm the pool
  const uint64_t before = nn::AllocEvents();
  for (int u = 0; u < 4; ++u) agent->Update(rng);
  EXPECT_EQ(nn::AllocEvents(), before)
      << "steady-state updates must be allocation-free (plans or warm arena)";
}

TEST(PlanAllocTest, SteadyStatePredictorStepAllocatesNothing) {
  // AllocEvents counts the calling thread only: a 1-thread pool keeps every
  // kernel of the step on it, whatever HEAD_THREADS says.
  parallel::ThreadPool pool(1);
  const parallel::GlobalPoolOverride pool_override(&pool);
  for (const bool plans : {true, false}) {
    const nn::ScopedPlansOff plans_off(/*active=*/!plans);
    Rng init(7);
    perception::LstGat model(perception::LstGatConfig{}, init);  // paper width
    Rng data(17);
    std::vector<perception::PredictionSample> train;
    for (int i = 0; i < 32; ++i) train.push_back(RandomSample(data, 4));
    perception::PredictorPlanCache cache;
    perception::PredictionTrainConfig config;
    config.epochs = 1;  // one 32-sample step per call
    config.plan_cache = &cache;
    // The first call compiles the plan (or fills the pool); the second runs
    // the measured path once, so the pool holds every buffer it recycles.
    perception::TrainPredictor(model, train, config);
    perception::TrainPredictor(model, train, config);
    const uint64_t before = nn::AllocEvents();
    perception::TrainPredictor(model, train, config);
    EXPECT_EQ(nn::AllocEvents(), before)
        << "a warm LST-GAT step must be allocation-free, plans "
        << (plans ? "on" : "off");
  }
}

}  // namespace
}  // namespace head
