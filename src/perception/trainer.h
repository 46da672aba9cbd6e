// Supervised training/evaluation harness for the state predictors
// (Eq. 14's masked MSE objective, Adam, minibatches) plus the accuracy and
// convergence-time metrics of Tables III/IV.
#ifndef HEAD_PERCEPTION_TRAINER_H_
#define HEAD_PERCEPTION_TRAINER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "obs/timeseries.h"
#include "perception/predictor.h"

namespace head::perception {

/// Compiled step plans keyed by (batch size << 32 | history depth). Owned by
/// the caller when handed to TrainPredictor via PredictionTrainConfig, so
/// plans compiled by one call are replayed by the next — repeated short
/// training runs (resumed training, benchmarks) skip recapture and run
/// steady-state replays throughout.
struct PredictorPlanCache {
  std::unordered_map<int64_t, std::shared_ptr<const nn::ExecPlan>> plans;
};

/// Every training step is one ForwardScaledBatch graph over the minibatch.
/// For a PlanCapturable() model, a batch with a uniform history depth z runs
/// as a static nn::ExecPlan per (batch size, z), compiled on first use and
/// replayed afterwards — bitwise identical to eager, and skipped while
/// nn::PlansEnabled() is false. Other batches run eagerly.
struct PredictionTrainConfig {
  int epochs = 15;          // paper Sec. V-A
  double learning_rate = 0.001;
  int batch_size = 64;
  uint64_t shuffle_seed = 7;
  bool verbose = false;
  /// Optional shared plan cache (not owned; must outlive the call). When
  /// null, each TrainPredictor call compiles into a private cache that dies
  /// with it.
  PredictorPlanCache* plan_cache = nullptr;
  /// Optional training-curve sink (not owned; must outlive the call). When
  /// set, every epoch appends one row: epoch index, mean masked scaled MSE,
  /// and its RMSE.
  obs::TimeSeries* timeseries = nullptr;
};

struct PredictionTrainResult {
  std::vector<double> epoch_losses;          // mean masked scaled MSE
  std::vector<double> epoch_elapsed_seconds; // cumulative wall-clock
  /// Wall-clock until the first epoch whose loss is within 5% of the best —
  /// the "training convergence time" (TCT) of Table IV.
  double convergence_seconds = 0.0;
  double total_seconds = 0.0;
};

/// Accuracy metrics of Table III, computed on raw (unscaled) errors over all
/// valid (unmasked) target components.
struct PredictionMetrics {
  double mae = 0.0;
  double mse = 0.0;
  double rmse = 0.0;
};

/// Mean masked scaled-residual MSE of the model on `samples` (no training).
double PredictionLoss(const StatePredictor& model,
                      const std::vector<PredictionSample>& samples);

PredictionTrainResult TrainPredictor(
    StatePredictor& model, const std::vector<PredictionSample>& train,
    const PredictionTrainConfig& config);

PredictionMetrics EvaluatePredictor(
    const StatePredictor& model, const std::vector<PredictionSample>& test);

/// Per-component error breakdown (lateral distance, longitudinal distance,
/// relative velocity) — useful to see *where* a predictor's error lives;
/// the aggregate of Table III averages over all three.
struct PerComponentMetrics {
  PredictionMetrics d_lat;
  PredictionMetrics d_lon;
  PredictionMetrics v_rel;
};

PerComponentMetrics EvaluatePredictorPerComponent(
    const StatePredictor& model, const std::vector<PredictionSample>& test);

}  // namespace head::perception

#endif  // HEAD_PERCEPTION_TRAINER_H_
