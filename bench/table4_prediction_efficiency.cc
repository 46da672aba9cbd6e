// Table IV — Efficiency of the state-prediction methods on REAL:
// TCT (training convergence time) and AvgIT (average inference time per
// surroundings-perception call, i.e., all six targets at once).
#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>

#include "eval/table.h"
#include "eval/workbench.h"
#include "perception/baselines/ed_lstm.h"
#include "perception/baselines/gas_led.h"
#include "perception/baselines/lstm_mlp.h"
#include "perception/lst_gat.h"

namespace {

using namespace head;

struct ModelEntry {
  std::shared_ptr<perception::StatePredictor> model;
  double tct_s = 0.0;
  double avg_it_ms = 0.0;
};

std::vector<ModelEntry> g_models;
std::shared_ptr<data::RealDataset> g_dataset;

void RunTable4() {
  const eval::BenchProfile profile = eval::BenchProfile::FromEnv();
  g_dataset =
      std::make_shared<data::RealDataset>(eval::BuildRealDataset(profile));

  Rng rng(profile.seed);
  std::vector<std::shared_ptr<perception::StatePredictor>> models = {
      std::make_shared<perception::LstmMlp>(64, rng),
      std::make_shared<perception::EdLstm>(64, rng),
      std::make_shared<perception::GasLed>(64, rng),
      std::make_shared<perception::LstGat>(perception::LstGatConfig{}, rng),
  };

  eval::TablePrinter table(
      {"Metric", "LSTM-MLP", "ED-LSTM", "GAS-LED", "LST-GAT"});
  std::vector<std::string> tct_row = {"TCT (s)"};
  std::vector<std::string> it_row = {"AvgIT (ms)"};
  for (auto& model : models) {
    const perception::PredictionTrainResult result =
        perception::TrainPredictor(*model, g_dataset->train,
                                   profile.pred_train);
    const perception::StGraph& graph = g_dataset->test.front().graph;
    const double avg_it = eval::MeasureAvgMillis(
        [&] { benchmark::DoNotOptimize(model->Predict(graph)); }, 200, 20);
    tct_row.push_back(eval::FormatDouble(result.convergence_seconds, 2));
    it_row.push_back(eval::FormatDouble(avg_it, 3));
    g_models.push_back({model, result.convergence_seconds, avg_it});
  }
  table.AddRow(tct_row);
  table.AddRow(it_row);
  table.Print(std::cout, "Table IV — Prediction efficiency on REAL (" +
                             profile.name + " profile)");
}

void BM_Inference(benchmark::State& state) {
  ModelEntry& entry = g_models[state.range(0)];
  state.SetLabel(entry.model->name());
  const perception::StGraph& graph = g_dataset->test.front().graph;
  for (auto _ : state) {
    benchmark::DoNotOptimize(entry.model->Predict(graph));
  }
  state.counters["TCT_s"] = entry.tct_s;
  state.counters["AvgIT_ms"] = entry.avg_it_ms;
}

}  // namespace

int main(int argc, char** argv) {
  RunTable4();
  for (size_t i = 0; i < g_models.size(); ++i) {
    const std::string name = "BM_Inference/" + g_models[i].model->name();
    benchmark::RegisterBenchmark(name.c_str(), &BM_Inference)
        ->Arg(static_cast<int>(i))
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
