// The performance gates that perfbench's end-to-end workloads cannot see,
// measured on a 1-thread pool and printed as one JSON line:
//
//   scope_disabled_ns  median ns of one HEAD_SCOPE with profiling and
//                      tracing off; tools/check.sh fails above 5 ns.
//   profile_coverage   share of root wall time that the op profiler
//                      attributes to nested rows over one BP-DQN Update
//                      plus one paper-width LST-GAT TrainPredictor step;
//                      tools/check.sh fails below 0.95.
//   gemm_gflops        GFLOP/s of the active kernel backend on the GEMM
//                      shapes the nets run (median over 25 ~2 ms windows).
//                      tools/check.sh builds this binary at -O3 (Release)
//                      and -O2 (RelWithDebInfo, the tier-1 build), runs each
//                      five times, alternating, and fails when a shape's
//                      median -O2/-O3 ratio over the run pairs is below 0.7.
//
// Usage: perf_gates   (no flags)
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "nn/kernels/simd.h"
#include "obs/profiler.h"
#include "parallel/thread_pool.h"
#include "perception/lst_gat.h"
#include "perception/trainer.h"
#include "rl/pdqn_agent.h"

namespace {

using head::Rng;
namespace kernels = head::nn::kernels;
namespace perception = head::perception;
namespace rl = head::rl;
using head::nn::Tensor;
using GemmKind = kernels::GemmKind;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Kept out of line so the loop does not inherit main's frame layout
/// (inlined, it read 3.1–3.8 ns against 1.9–3.1 ns out of line on a 4-vCPU
/// Xeon VM).
[[gnu::noinline]] double MeasureDisabledScopeNs() {
  constexpr int kIters = 1 << 22;
  std::vector<double> per_trial;
  for (int t = 0; t < 5; ++t) {
    const uint64_t t0 = head::obs::NowNs();
    for (int i = 0; i < kIters; ++i) {
      HEAD_SCOPE("bench.disabled_scope");
    }
    per_trial.push_back(static_cast<double>(head::obs::NowNs() - t0) /
                        kIters);
  }
  return Median(per_trial);
}

// ---- Op-profile coverage ----

rl::AugmentedState RandomState(Rng& rng) {
  rl::AugmentedState s;
  s.h = Tensor::Uniform(rl::kStateHRows, rl::kStateCols, -1.0, 1.0, rng);
  s.f = Tensor::Uniform(rl::kStateFRows, rl::kStateCols, -1.0, 1.0, rng);
  return s;
}

std::vector<perception::PredictionSample> RandomSamples(int count, int z,
                                                        Rng& rng) {
  std::vector<perception::PredictionSample> samples(count);
  for (perception::PredictionSample& s : samples) {
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
      s.truth.valid[i] = rng.Uniform(0.0, 1.0) < 0.8;
    }
  }
  return samples;
}

/// One profiled BP-DQN Update and one profiled 64-sample LST-GAT step, both
/// paper-width and warmed (plans compiled) outside the profiling session.
double MeasureProfileCoverage() {
  rl::PdqnConfig rl_config;
  Rng init(11);
  auto agent = rl::MakeBpDqnAgent(rl_config, init);
  Rng data(21);
  for (int i = 0; i < rl_config.warmup_transitions + rl_config.batch_size;
       ++i) {
    rl::AgentAction action;
    action.behavior = data.UniformInt(0, rl::kNumBehaviors - 1);
    action.params = Tensor::Uniform(1, rl::kNumBehaviors, -3.0, 3.0, data);
    const rl::AugmentedState s = RandomState(data);
    agent->Remember(s, action, data.Uniform(-1.0, 1.0), RandomState(data),
                    /*terminal=*/i % 23 == 0);
  }

  Rng model_init(7);
  perception::LstGat model(perception::LstGatConfig{}, model_init);
  Rng sample_rng(17);
  const auto samples = RandomSamples(64, /*z=*/4, sample_rng);
  perception::PredictorPlanCache plan_cache;
  perception::PredictionTrainConfig train_config;
  train_config.epochs = 1;
  train_config.plan_cache = &plan_cache;

  Rng rng(31);
  agent->Update(rng);
  perception::TrainPredictor(model, samples, train_config);
  head::obs::StartProfiling();
  agent->Update(rng);
  perception::TrainPredictor(model, samples, train_config);
  head::obs::StopProfiling();
  return head::obs::CollectProfile().coverage;
}

// ---- GEMM shapes ----

struct GemmShape {
  const char* name;
  GemmKind kind;
  int m, n, k;
  bool bias;
};

// m×n×k per kind; A is (k×m) for TN, B is (n×k) for NT, all row-major.
const GemmShape kGemmShapes[] = {
    // LSTM gates x·W_ih + b over 6 areas × a 64-sample training batch.
    {"lstm_gate_fwd", GemmKind::kNN, 384, 256, 64, true},
    // Their weight gradient dW = xᵀ·dgates.
    {"lstm_gate_dw", GemmKind::kTN, 64, 256, 384, false},
    // Their input gradient dx = dgates·Wᵀ.
    {"lstm_gate_dx", GemmKind::kNT, 384, 64, 256, false},
    // The B=1 Predict gates: 6 areas, read B in place.
    {"lstm_gate_b1", GemmKind::kNN, 6, 256, 64, true},
    // φ3 value embedding of the aggregated 4-wide features, B=64.
    {"phi3", GemmKind::kNN, 384, 64, 4, false},
    // BranchEncoder layer 1 over a 64-transition critic batch (7 rows each).
    {"branch_l1", GemmKind::kNN, 448, 64, 4, false},
    // Q-net fusion layer on the merged features.
    {"q_fuse", GemmKind::kNN, 64, 64, 16, false},
};

/// One shape's operands, with a repeat count calibrated to a ~2 ms window.
class GemmBench {
 public:
  GemmBench(const GemmShape& s, Rng& rng)
      : s_(s),
        a_(Tensor::Uniform(s.kind == GemmKind::kTN ? s.k : s.m,
                           s.kind == GemmKind::kTN ? s.m : s.k, -1.0, 1.0,
                           rng)),
        b_(Tensor::Uniform(s.kind == GemmKind::kNT ? s.n : s.k,
                           s.kind == GemmKind::kNT ? s.k : s.n, -1.0, 1.0,
                           rng)),
        bias_(Tensor::Uniform(1, s.n, -1.0, 1.0, rng)),
        c_(s.m, s.n) {
    Run();  // warm caches and the thread-local panel scratch
    while (reps_ < (1 << 20) && WindowSeconds() < 0.002) reps_ *= 2;
  }

  /// GFLOP/s over one timed window.
  double Gflops() {
    const double flops = static_cast<double>(
        kernels::FlopsFor(s_.kind, s_.m, s_.n, s_.k));
    return flops * reps_ / WindowSeconds() / 1e9;
  }

 private:
  double WindowSeconds() {
    const uint64_t t0 = head::obs::NowNs();
    for (int r = 0; r < reps_; ++r) Run();
    return static_cast<double>(head::obs::NowNs() - t0) * 1e-9;
  }

  void Run() {
    const double* a = a_.data().data();
    const double* b = b_.data().data();
    double* c = c_.data().data();
    switch (s_.kind) {
      case GemmKind::kNN:
        kernels::GemmNN(s_.m, s_.n, s_.k, a, b,
                        s_.bias ? bias_.data().data() : nullptr,
                        s_.bias ? kernels::GemmInit::kBias
                                : kernels::GemmInit::kZero,
                        c);
        break;
      case GemmKind::kTN:
        kernels::GemmTN(s_.m, s_.n, s_.k, a, b, kernels::GemmInit::kZero, c);
        break;
      case GemmKind::kNT:
        kernels::GemmNT(s_.m, s_.n, s_.k, a, b, c);
        break;
    }
  }

  GemmShape s_;
  Tensor a_, b_, bias_, c_;
  int reps_ = 1;
};

}  // namespace

int main() {
  // Every figure is single-threaded: the GEMMs stay unsplit and the
  // profiler sees each step's whole tree on the calling thread.
  head::parallel::ThreadPool pool(1);
  head::parallel::GlobalPoolOverride pool_override(&pool);

  const double scope_ns = MeasureDisabledScopeNs();
  const double coverage = MeasureProfileCoverage();
  std::ostringstream json;
  json << "{\"isa\":\"" << kernels::IsaName(kernels::ActiveIsa())
       << "\",\"fast_math\":" << (kernels::FastMathEnabled() ? "true" : "false")
       << ",\"scope_disabled_ns\":" << scope_ns
       << ",\"profile_coverage\":" << coverage << ",\"gemm_gflops\":{";
  Rng rng(53);
  std::vector<std::unique_ptr<GemmBench>> benches;
  for (const GemmShape& s : kGemmShapes) {
    benches.push_back(std::make_unique<GemmBench>(s, rng));
  }
  // The windows take the shapes in turn, so a slow spell of the host lands
  // on all of them instead of on one; each shape reports its median.
  std::vector<std::vector<double>> gflops(benches.size());
  for (int w = 0; w < 25; ++w) {
    for (size_t i = 0; i < benches.size(); ++i) {
      gflops[i].push_back(benches[i]->Gflops());
    }
  }
  for (size_t i = 0; i < benches.size(); ++i) {
    json << (i ? "," : "") << "\"" << kGemmShapes[i].name
         << "\":" << Median(gflops[i]);
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}
