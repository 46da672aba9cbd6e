// LST-GAT (Local Spatial-Temporal Graph ATtention) — the paper's state
// prediction model (Sec. III-B, Fig. 5, Eqs. 10–13). Per historical step a
// shared graph-attention layer updates each target by attending over its six
// surroundings plus itself; an LSTM then consumes the z updated states of
// all six targets *in one batch* and a linear head emits the one-step
// predictions in parallel.
#ifndef HEAD_PERCEPTION_LST_GAT_H_
#define HEAD_PERCEPTION_LST_GAT_H_

#include <string>
#include <vector>

#include "nn/lstm.h"
#include "perception/predictor.h"

namespace head::perception {

struct LstGatConfig {
  int d_phi1 = 64;        ///< D_φ1: attention embedding width
  int d_phi3 = 64;        ///< D_φ3: value embedding width (LSTM input)
  int d_lstm = 64;        ///< D_l: LSTM hidden width
  double leaky_slope = 0.2;  ///< LeakyReLU slope of Eq. (10)
  /// Ablation switch: false replaces the learned attention of Eq. (10) with
  /// uniform mean aggregation over the 7 nodes (bench/ablation_attention).
  bool use_attention = true;
};

class LstGat : public StatePredictor {
 public:
  LstGat(const LstGatConfig& config, Rng& rng,
         FeatureScale scale = FeatureScale());

  std::string name() const override { return "LST-GAT"; }

  /// The per-sample pass: ForwardScaledBatch({&graph}).
  nn::Var ForwardScaled(const StGraph& graph) const override;

  /// Minibatch pass: stacks every sample's 42 step-k nodes into one
  /// (B·42×4) matrix, runs the GAT as block-diagonal score/softmax/
  /// aggregate ops (no per-target slicing loop), and drives the LSTM with a
  /// batch of B·6 target rows. Falls back to the stacked per-sample default
  /// when the graphs disagree on history depth z.
  nn::Var ForwardScaledBatch(
      const std::vector<const StGraph*>& graphs) const override;

  /// The pass builds a fixed graph for a given z whose data enters only
  /// through nn::PlanInput — compilable into an ExecPlan.
  bool PlanCapturable() const override { return true; }
  void AppendPlanInputsBatch(const std::vector<const StGraph*>& graphs,
                             std::vector<nn::Tensor>* inputs) const override;
  const char* ForwardScopeName() const override {
    return "perception.lstgat.forward";
  }

  std::vector<nn::Var> Params() const override;

  const LstGatConfig& config() const { return config_; }

  /// Attention weights over [self, surroundings 1..6] of target `i` at the
  /// newest step — exposed for tests and analysis.
  std::vector<double> AttentionWeights(const StGraph& graph, int i) const;

 private:
  /// Eq. (10) folded: φ2ᵀ[φ1ᵀm_t ‖ φ1ᵀm_n] = m_t·(φ1φ2[:D]) + m_n·(φ1φ2[D:]),
  /// so the (4 × 2) W = [φ1φ2[:D]  φ1φ2[D:]] scores every pair. Built from
  /// the params once per forward, so gradients still reach φ1 and φ2.
  /// Undefined when config_.use_attention is off.
  nn::Var FoldedAttention() const;

  /// Eq. (10) for `groups` stacked 7-node groups of `m` (groups·7 × 4),
  /// with `w` = FoldedAttention(): node n of group g scores
  /// LeakyReLU(S[g·7, 0] + S[g·7+n, 1]) for S = m·W. Returns the
  /// (groups × 7) weights over [self, surroundings 1..6], or the uniform
  /// 1/7 when config_.use_attention is off (`w` unused).
  nn::Var Attention(const nn::Var& m, const nn::Var& w, int groups) const;

  /// Per-step GAT over `groups` stacked 7-node groups at once: `m` is
  /// (groups·7 × 4); returns the (groups × d_phi3) updated states of
  /// Eq. (11), aggregated before φ3: Σₙ αₙ(φ3ᵀmₙ) = φ3ᵀ(Σₙ αₙmₙ).
  nn::Var GatStepStacked(const nn::Var& m, const nn::Var& w, int groups) const;

  LstGatConfig config_;
  nn::Var phi1_;  // (4 × D_φ1)
  nn::Var phi2_;  // (2·D_φ1 × 1) attention vector
  nn::Var phi3_;  // (4 × D_φ3)
  nn::LstmCell lstm_;
  nn::Linear head_;  // φ4 (+ b4): D_l → 3
};

}  // namespace head::perception

#endif  // HEAD_PERCEPTION_LST_GAT_H_
