#include "core/head_agent.h"

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/recorder.h"

namespace head::core {

HeadAgent::HeadAgent(const HeadConfig& config,
                     std::shared_ptr<const perception::StatePredictor> predictor,
                     std::shared_ptr<rl::PamdpAgent> agent)
    : config_(config),
      predictor_(std::move(predictor)),
      agent_(std::move(agent)),
      history_(config.history_z),
      act_rng_(0xC0FFEE) {
  HEAD_CHECK(agent_ != nullptr);
  if (config_.variant.use_lst_gat) {
    HEAD_CHECK_MSG(predictor_ != nullptr,
                   "LST-GAT variant requires a predictor");
  }
}

std::string HeadAgent::name() const { return config_.variant.Name(); }

void HeadAgent::OnEpisodeStart() { history_.Clear(); }

rl::AugmentedState HeadAgent::Perceive(const decision::EgoView& view) {
  perception::ObservationFrame frame;
  frame.ego = view.ego;
  frame.observed = view.observed;
  history_.Push(std::move(frame));
  perception::CompletedScene scene;
  {
    HEAD_SCOPE("perception.phantom");
    scene = perception::ConstructPhantoms(history_, config_.road,
                                          config_.sensor.range_m,
                                          config_.variant.use_pvc);
  }
  {
    HEAD_SCOPE("perception.graph");
    graph_ = perception::BuildStGraph(scene, config_.road, config_.scale);
  }
  perception::Prediction prediction{};
  if (config_.variant.use_lst_gat) {
    prediction = predictor_->Predict(graph_);  // scopes itself
  }
  HEAD_SCOPE("perception.augment");
  return rl::BuildAugmentedState(graph_, prediction, config_.road,
                                 config_.scale,
                                 config_.variant.use_lst_gat);
}

Maneuver HeadAgent::Decide(const decision::EgoView& view) {
  static obs::Histogram& latency = obs::LatencyHistogram("agent.act");
  static obs::Counter& decisions = obs::GetCounter("agent.decisions");
  HEAD_SCOPE("agent.act", latency);
  decisions.Add();
  last_state_ = Perceive(view);
  const rl::AgentAction action =
      agent_->Act(last_state_, /*epsilon=*/0.0, act_rng_);  // scopes rl.act
  if (obs::RecordingEnabled()) {
    obs::ScratchRecord().rng_cursor = act_rng_.draws();
  }
  return action.maneuver;
}

}  // namespace head::core
