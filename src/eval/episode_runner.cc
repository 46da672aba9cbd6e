#include "eval/episode_runner.h"

#include <cmath>
#include <limits>
#include <optional>
#include <unordered_map>

#include "obs/profiler.h"
#include "obs/recorder.h"
#include "rl/reward.h"

namespace head::eval {

namespace {

struct FollowerStat {
  double sum_v = 0.0;
  long steps = 0;
  bool qualified = false;
};

}  // namespace

EpisodeRecord RunEpisode(decision::Policy& policy, const RunnerConfig& config,
                         uint64_t seed, int episode_index) {
  // Flight recorder: install the episode context and (only while recording)
  // a reward function so dumped records carry the Eq. 28 decomposition the
  // training env would have seen. Baseline policies don't compute rewards
  // themselves, so this is the eval path's only reward source.
  std::optional<rl::RewardFunction> reward_fn;
  if (obs::RecordingEnabled()) {
    obs::EpisodeContext ctx;
    ctx.scenario = config.scenario_name;
    ctx.policy = policy.name();
    ctx.seed = seed;
    ctx.episode_index = episode_index;
    obs::BeginEpisode(ctx);
    reward_fn.emplace(rl::RewardConfig{}, config.sim.road);
  }

  sim::Simulation sim(config.sim, seed);
  policy.OnEpisodeStart();

  EpisodeRecord rec;
  double prev_accel = 0.0;
  double sum_v = 0.0;
  double sum_jerk = 0.0;
  long steps = 0;
  double min_ttc = std::numeric_limits<double>::infinity();
  double rear_decel_sum = 0.0;
  long rear_decel_steps = 0;
  std::unordered_map<VehicleId, FollowerStat> followers;

  while (sim.status() == sim::EpisodeStatus::kRunning) {
    HEAD_SCOPE("episode.step");
    const sim::RoadView before = sim.View();
    const VehicleState ego_before = sim.ego_state();

    // Rear conventional vehicle (for #-CA / D-CA) before the step.
    const sim::VehicleSnapshot* rear =
        before.Follower(ego_before.lane, ego_before.lon_m, kEgoVehicleId);
    const VehicleId rear_id = rear != nullptr ? rear->id : kInvalidVehicleId;
    const double rear_v = rear != nullptr ? rear->state.v_mps : 0.0;

    // The policy only sees the sensor output.
    decision::EgoView view;
    view.ego = ego_before;
    view.observed = sensor::Observe(sim.GlobalSnapshot(), ego_before,
                                    config.sensor, config.sim.road);
    view.prev_accel_mps2 = prev_accel;
    const Maneuver maneuver = policy.Decide(view);

    const sim::EpisodeStatus status = sim.Step(maneuver);
    ++steps;

    const VehicleState ego_after = sim.ego_state();

    if (reward_fn.has_value()) {
      // The scratch already holds perception + decision fills from
      // policy.Decide and the ego outcome from sim.Step; Compute adds the
      // reward decomposition, then the record is sealed.
      rl::RewardObservation robs;
      robs.collision = status == sim::EpisodeStatus::kCollision;
      robs.ego_next = ego_after;
      robs.accel_now_mps2 = maneuver.accel_mps2;
      robs.accel_prev_mps2 = prev_accel;
      if (config.sim.road.IsValidLane(ego_after.lane)) {
        // The view must outlive the Leader() pointer into it.
        const sim::RoadView after = sim.View();
        const sim::VehicleSnapshot* front =
            after.Leader(ego_after.lane, ego_after.lon_m, kEgoVehicleId);
        if (front != nullptr) robs.front_next = front->state;
      }
      if (rear_id != kInvalidVehicleId) {
        robs.rear_v_now_mps = rear_v;
        for (const sim::Vehicle& v : sim.conventional_vehicles()) {
          if (v.id == rear_id) {
            robs.rear_v_next_mps = v.state.v_mps;
            break;
          }
        }
      }
      reward_fn->Compute(robs);
      obs::CommitStepRecord();
    }

    sum_v += ego_after.v_mps;
    sum_jerk += std::fabs(maneuver.accel_mps2 - prev_accel);
    prev_accel = maneuver.accel_mps2;

    // TTC with the front vehicle after the step.
    if (config.sim.road.IsValidLane(ego_after.lane)) {
      const sim::RoadView after = sim.View();
      const sim::VehicleSnapshot* front =
          after.Leader(ego_after.lane, ego_after.lon_m, kEgoVehicleId);
      if (front != nullptr) {
        const std::optional<double> ttc =
            rl::TimeToCollision(front->state, ego_after);
        if (ttc.has_value()) min_ttc = std::min(min_ttc, *ttc);
      }
    }

    // Rear-vehicle impact.
    if (rear_id != kInvalidVehicleId) {
      for (const sim::Vehicle& v : sim.conventional_vehicles()) {
        if (v.id != rear_id) continue;
        const double drop = rear_v - v.state.v_mps;
        if (drop > 0.5) ++rec.rear_decel_events;
        if (drop > 0.0) {
          rear_decel_sum += drop;
          ++rear_decel_steps;
        }
        break;
      }
    }

    // Follower statistics for AvgDT-C.
    for (const sim::Vehicle& v : sim.conventional_vehicles()) {
      const double lon = v.state.lon_m;
      if (lon < 0.0 || lon > config.sim.road.length_m) continue;
      FollowerStat& stat = followers[v.id];
      stat.sum_v += v.state.v_mps;
      ++stat.steps;
      const double d = lon - ego_after.lon_m;
      if (d < 0.0 && d > -config.follower_window_m) stat.qualified = true;
    }
  }

  if (obs::RecordingEnabled()) {
    obs::EndEpisode(sim::ToEpisodeEnd(sim.status()));
  }

  rec.completed = sim.status() == sim::EpisodeStatus::kReachedDestination;
  rec.collided = sim.status() == sim::EpisodeStatus::kCollision;
  rec.driving_time_s = sim.time_s();
  rec.mean_v_mps = steps > 0 ? sum_v / steps : 0.0;
  rec.mean_jerk_mps2 = steps > 0 ? sum_jerk / steps : 0.0;
  rec.min_ttc_s = std::isfinite(min_ttc) ? min_ttc : -1.0;
  rec.mean_rear_decel_mps =
      rear_decel_steps > 0 ? rear_decel_sum / rear_decel_steps : -1.0;

  double dt_c_sum = 0.0;
  for (const auto& [id, stat] : followers) {
    if (!stat.qualified || stat.steps < config.min_follower_steps) continue;
    const double mean_v = stat.sum_v / stat.steps;
    if (mean_v < 0.5) continue;
    dt_c_sum += config.sim.road.length_m / mean_v;
    ++rec.followers;
  }
  rec.mean_follower_dt_s = rec.followers > 0 ? dt_c_sum / rec.followers : 0.0;
  return rec;
}

AggregateMetrics RunPolicy(decision::Policy& policy,
                           const RunnerConfig& config) {
  std::vector<EpisodeRecord> records;
  records.reserve(config.episodes);
  for (int ep = 0; ep < config.episodes; ++ep) {
    records.push_back(RunEpisode(policy, config, config.seed_base + ep, ep));
  }
  return AggregateMetrics::FromRecords(records);
}

}  // namespace head::eval
