// Table VI — Efficiency of the RL methods: TCT (training convergence time)
// and AvgIT (average greedy-inference latency per decision).
#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>

#include "eval/table.h"
#include "eval/workbench.h"
#include "parallel/env_pool.h"
#include "rl/p_ddpg.h"
#include "rl/pdqn_agent.h"
#include "rl/trainer.h"

namespace {

using namespace head;

struct AgentEntry {
  std::string name;
  std::shared_ptr<rl::PamdpAgent> agent;
  double tct_s = 0.0;
  double avg_it_ms = 0.0;
};

std::vector<AgentEntry> g_agents;
rl::AugmentedState g_state;

void RunTable6() {
  const eval::BenchProfile profile = eval::BenchProfile::FromEnv();
  auto predictor = eval::TrainOrLoadLstGat(profile);
  const core::HeadConfig head =
      eval::MakeHeadConfig(profile, core::HeadVariant::Full());

  // A representative state for the latency measurement.
  {
    rl::DrivingEnv env(head.MakeEnvConfig(profile.rl_sim), predictor.get(),
                       profile.seed);
    g_state = env.Reset(profile.seed);
  }

  eval::TablePrinter table({"Metric", "P-QP", "P-DDPG", "P-DQN", "BP-DQN"});
  std::vector<std::string> tct_row = {"TCT (s)"};
  std::vector<std::string> it_row = {"AvgIT (ms)"};
  for (const std::string name : {"P-QP", "P-DDPG", "P-DQN", "BP-DQN"}) {
    Rng rng(profile.seed + 17);
    std::shared_ptr<rl::PamdpAgent> agent;
    if (name == "P-QP") {
      agent = rl::MakePQpAgent(head.pdqn, rng);
    } else if (name == "P-DDPG") {
      rl::PddpgConfig c;
      c.hidden = head.pdqn.hidden;
      c.batch_size = head.pdqn.batch_size;
      c.warmup_transitions = head.pdqn.warmup_transitions;
      c.update_every = head.pdqn.update_every;
      c.a_max = head.pdqn.a_max;
      agent = std::make_shared<rl::PddpgAgent>(c, rng);
    } else if (name == "P-DQN") {
      agent = rl::MakePDqnAgent(head.pdqn, rng);
    } else {
      agent = rl::MakeBpDqnAgent(head.pdqn, rng);
    }
    // TCT measures wall-clock with parallel collection: rounds of
    // K = rollout_envs episodes fan out across the global thread pool.
    parallel::EnvPool envs =
        eval::MakeEnvPool(profile, core::HeadVariant::Full(), predictor);
    rl::RlTrainConfig train = profile.rl_train;
    // Method comparison needs a ranking, not a final policy: half budget.
    train.episodes = std::max(100, train.episodes / 3);
    train.seed = profile.seed + 29;
    std::cout << "training " << name << " (" << train.episodes
              << " episodes, K=" << envs.size() << " envs)...\n";
    const rl::RlTrainResult result = rl::TrainAgent(*agent, envs, train);

    Rng act_rng(1);
    const double avg_it = eval::MeasureAvgMillis(
        [&] {
          benchmark::DoNotOptimize(agent->Act(g_state, 0.0, act_rng));
        },
        500, 50);
    tct_row.push_back(eval::FormatDouble(result.convergence_seconds, 1));
    it_row.push_back(eval::FormatDouble(avg_it, 3));
    g_agents.push_back({name, agent, result.convergence_seconds, avg_it});
  }
  table.AddRow(tct_row);
  table.AddRow(it_row);
  table.Print(std::cout,
              "Table VI — RL efficiency (" + profile.name + " profile)");
}

void BM_Decision(benchmark::State& state) {
  AgentEntry& entry = g_agents[state.range(0)];
  state.SetLabel(entry.name);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(entry.agent->Act(g_state, 0.0, rng));
  }
  state.counters["TCT_s"] = entry.tct_s;
  state.counters["AvgIT_ms"] = entry.avg_it_ms;
}

}  // namespace

int main(int argc, char** argv) {
  RunTable6();
  for (size_t i = 0; i < g_agents.size(); ++i) {
    const std::string name = "BM_Decision/" + g_agents[i].name;
    benchmark::RegisterBenchmark(name.c_str(), &BM_Decision)
        ->Arg(static_cast<int>(i))
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
