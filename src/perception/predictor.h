// Common interface of all one-step state predictors (LST-GAT and the
// Table III/IV baselines). Every predictor consumes the same completed
// spatial-temporal graph and emits, for each of the six targets, its
// predicted state at t+1 relative to the ego at t (paper Eq. 13).
//
// Internally all predictors regress the scaled *residual* from the target's
// current relative state — a parameterization choice that leaves the paper's
// task unchanged while conditioning the optimization well.
#ifndef HEAD_PERCEPTION_PREDICTOR_H_
#define HEAD_PERCEPTION_PREDICTOR_H_

#include <array>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "nn/layers.h"
#include "nn/plan.h"
#include "perception/st_graph.h"

namespace head::perception {

/// Predicted state of one target at t+1, relative to the ego at t:
/// [d̂_lat (m), d̂_lon (m), v̂_rel (m/s)] — the expansion of Eq. (13).
struct PredictedState {
  double d_lat_m = 0.0;
  double d_lon_m = 0.0;
  double v_rel_mps = 0.0;
};

using Prediction = std::array<PredictedState, kNumAreas>;

/// Ground-truth targets for one training sample.
struct PredictionTruth {
  /// Raw [d_lat, d_lon, v_rel] of each C_i at t+1 relative to the ego at t.
  std::array<std::array<double, 3>, kNumAreas> value{};
  /// False ⇒ the loss is masked (phantom target, or the vehicle left the
  /// scene at t+1 so no ground truth exists) — paper's loss masking (Eq. 14).
  std::array<bool, kNumAreas> valid{};
};

struct PredictionSample {
  StGraph graph;
  PredictionTruth truth;
};

/// A predictor with trainable parameters.
class StatePredictor : public nn::Module {
 public:
  explicit StatePredictor(FeatureScale scale) : scale_(scale) {}

  virtual std::string name() const = 0;

  /// Differentiable forward pass: (6×3) Var of *scaled residuals* from each
  /// target's current relative state. Used by the trainer.
  virtual nn::Var ForwardScaled(const StGraph& graph) const = 0;

  /// Differentiable minibatch forward pass: (B·6×3) Var, sample-major (the
  /// 6 rows of graphs[0], then graphs[1], …). The default stacks per-sample
  /// ForwardScaled results; LST-GAT overrides it with its one vectorized
  /// pass (one autograd graph over the whole minibatch) and runs
  /// ForwardScaled through it at B=1.
  virtual nn::Var ForwardScaledBatch(
      const std::vector<const StGraph*>& graphs) const;

  /// True when ForwardScaledBatch builds a fixed-shape graph for a given
  /// history depth z whose data enters only through nn::PlanInput, so
  /// Predict and the trainer may compile the pass into a static
  /// nn::ExecPlan. The per-sample stacking default is not.
  virtual bool PlanCapturable() const { return false; }
  /// Replay feeder: pushes the input tensors in the exact order a captured
  /// ForwardScaledBatch(graphs) consumed them. Only valid when
  /// PlanCapturable().
  virtual void AppendPlanInputsBatch(const std::vector<const StGraph*>& graphs,
                                     std::vector<nn::Tensor>* inputs) const;
  /// Scope name a replayed forward pass is attributed to — the same scope
  /// the model's eager forward opens, so traces and profiles look identical
  /// whether a step ran eagerly or as a plan replay.
  virtual const char* ForwardScopeName() const { return "perception.forward"; }

  /// Inference: decodes ForwardScaled into absolute relative states.
  /// When PlanCapturable() and nn::PlansEnabled(), the forward pass is
  /// compiled into one ExecPlan per history depth z on first use and
  /// replayed afterwards — safe to call concurrently from EnvPool workers
  /// (replay state is per-thread).
  Prediction Predict(const StGraph& graph) const;

  const FeatureScale& scale() const { return scale_; }

 protected:
  FeatureScale scale_;

 private:
  /// Predict's compiled plans, keyed by history depth z (shapes depend only
  /// on z for a capturable predictor). Guarded: Predict may race with
  /// itself across EnvPool workers.
  mutable std::mutex plan_mu_;
  mutable std::unordered_map<int, std::shared_ptr<const nn::ExecPlan>>
      predict_plans_;
};

/// Scaled residual truth used for the regression loss: per target,
/// (truth − current) * scale per component.
nn::Tensor ScaledResidualTruth(const StGraph& graph,
                               const PredictionTruth& truth,
                               const FeatureScale& scale);

/// (6×3) mask tensor: 1 where the loss applies, 0 where masked.
nn::Tensor TruthMask(const PredictionTruth& truth);

}  // namespace head::perception

#endif  // HEAD_PERCEPTION_PREDICTOR_H_
