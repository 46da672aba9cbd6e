#include "perception/predictor.h"

#include "common/check.h"
#include "nn/autograd.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/recorder.h"

namespace head::perception {

namespace {

/// Plans are keyed by history depth z; predictors see a single z in any
/// given deployment, so the cap only bounds pathological callers — extra
/// depths just run eagerly.
constexpr size_t kMaxPredictPlans = 8;

}  // namespace

nn::Var StatePredictor::ForwardScaledBatch(
    const std::vector<const StGraph*>& graphs) const {
  HEAD_CHECK(!graphs.empty());
  std::vector<nn::Var> rows;
  rows.reserve(graphs.size());
  for (const StGraph* g : graphs) rows.push_back(ForwardScaled(*g));
  return rows.size() == 1 ? rows[0] : nn::ConcatRows(rows);
}

// The feeder is only reachable through PlanCapturable() == true overrides.
void StatePredictor::AppendPlanInputsBatch(const std::vector<const StGraph*>&,
                                           std::vector<nn::Tensor>*) const {
  HEAD_CHECK(false);
}

Prediction StatePredictor::Predict(const StGraph& graph) const {
  static obs::Histogram& latency = obs::LatencyHistogram("perception.predict");
  HEAD_SCOPE("perception.predict", latency);
  // Inference only — don't record an autograd graph for this forward pass,
  // and recycle the previous prediction's tape nodes first.
  nn::ResetTape();
  const nn::NoGradGuard no_grad;

  nn::Tensor value;  // (6×3) scaled residuals
  bool have_value = false;
  std::shared_ptr<const nn::ExecPlan> plan;
  if (nn::PlansEnabled() && PlanCapturable()) {
    std::lock_guard<std::mutex> lock(plan_mu_);
    const auto it = predict_plans_.find(graph.z());
    if (it != predict_plans_.end()) {
      plan = it->second;
    } else if (predict_plans_.size() < kMaxPredictPlans) {
      // Capture runs the forward eagerly as it records — its output IS this
      // prediction; replay starts at the next call.
      nn::PlanCapture capture;
      const nn::Var out = ForwardScaled(graph);
      value = out.value();
      have_value = true;
      predict_plans_.emplace(graph.z(), capture.Finish({out}));
    }
  }
  if (plan != nullptr) {
    HEAD_SCOPE(ForwardScopeName());
    std::vector<nn::Tensor> in;
    AppendPlanInputsBatch({&graph}, &in);
    value = *plan->Replay(std::move(in))[0];
  } else if (!have_value) {
    value = ForwardScaled(graph).value();
  }
  HEAD_CHECK_EQ(value.rows(), kNumAreas);
  HEAD_CHECK_EQ(value.cols(), 3);
  Prediction pred;
  for (int i = 0; i < kNumAreas; ++i) {
    pred[i].d_lat_m =
        graph.target_rel_current[i][0] + value.At(i, 0) / scale_.lat;
    pred[i].d_lon_m =
        graph.target_rel_current[i][1] + value.At(i, 1) / scale_.lon;
    pred[i].v_rel_mps =
        graph.target_rel_current[i][2] + value.At(i, 2) / scale_.v;
  }

  if (obs::RecordingEnabled()) {
    static_assert(obs::kRecordNeighbors == kNumAreas);
    obs::StepRecord& rec = obs::ScratchRecord();
    for (int i = 0; i < kNumAreas; ++i) {
      rec.prediction[i].d_lat_m = pred[i].d_lat_m;
      rec.prediction[i].d_lon_m = pred[i].d_lon_m;
      rec.prediction[i].v_rel_mps = pred[i].v_rel_mps;
    }
    rec.has_prediction = 1;
  }
  return pred;
}

nn::Tensor ScaledResidualTruth(const StGraph& graph,
                               const PredictionTruth& truth,
                               const FeatureScale& scale) {
  nn::Tensor t(kNumAreas, 3);
  for (int i = 0; i < kNumAreas; ++i) {
    t.At(i, 0) =
        (truth.value[i][0] - graph.target_rel_current[i][0]) * scale.lat;
    t.At(i, 1) =
        (truth.value[i][1] - graph.target_rel_current[i][1]) * scale.lon;
    t.At(i, 2) =
        (truth.value[i][2] - graph.target_rel_current[i][2]) * scale.v;
  }
  return t;
}

nn::Tensor TruthMask(const PredictionTruth& truth) {
  nn::Tensor m(kNumAreas, 3);
  for (int i = 0; i < kNumAreas; ++i) {
    const double v = truth.valid[i] ? 1.0 : 0.0;
    for (int c = 0; c < 3; ++c) m.At(i, c) = v;
  }
  return m;
}

}  // namespace head::perception
