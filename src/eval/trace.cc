#include "eval/trace.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "common/check.h"
#include "obs/profiler.h"

namespace head::eval {

EpisodeTrace RecordEpisode(decision::Policy& policy,
                           const TraceConfig& config, uint64_t seed) {
  sim::Simulation sim(config.sim, seed);
  rl::RewardFunction reward_fn(config.reward, config.sim.road);
  policy.OnEpisodeStart();

  EpisodeTrace trace;
  trace.policy_name = policy.name();
  trace.seed = seed;
  double prev_accel = 0.0;

  while (sim.status() == sim::EpisodeStatus::kRunning) {
    HEAD_SCOPE("episode.step");
    const VehicleState ego_before = sim.ego_state();
    decision::EgoView view;
    view.ego = ego_before;
    view.observed = sensor::Observe(sim.GlobalSnapshot(), ego_before,
                                    config.sensor, config.sim.road);
    view.prev_accel_mps2 = prev_accel;
    const Maneuver maneuver = policy.Decide(view);

    // Rear vehicle before the step (for the impact term).
    const sim::RoadView before = sim.View();
    const sim::VehicleSnapshot* rear =
        before.Follower(ego_before.lane, ego_before.lon_m, kEgoVehicleId);
    const VehicleId rear_id = rear != nullptr ? rear->id : kInvalidVehicleId;
    const double rear_v = rear != nullptr ? rear->state.v_mps : 0.0;

    const sim::EpisodeStatus status = sim.Step(maneuver);

    TraceStep step;
    step.time_s = sim.time_s();
    step.ego = sim.ego_state();
    step.maneuver = maneuver;
    step.observed_vehicles = static_cast<int>(view.observed.size());

    rl::RewardObservation obs;
    obs.collision = status == sim::EpisodeStatus::kCollision;
    obs.ego_next = sim.ego_state();
    obs.accel_now_mps2 = maneuver.accel_mps2;
    obs.accel_prev_mps2 = prev_accel;
    if (config.sim.road.IsValidLane(sim.ego_state().lane)) {
      const sim::RoadView after = sim.View();
      const sim::VehicleSnapshot* front = after.Leader(
          sim.ego_state().lane, sim.ego_state().lon_m, kEgoVehicleId);
      if (front != nullptr) obs.front_next = front->state;
    }
    if (rear_id != kInvalidVehicleId) {
      obs.rear_v_now_mps = rear_v;
      for (const sim::Vehicle& v : sim.conventional_vehicles()) {
        if (v.id == rear_id) {
          obs.rear_v_next_mps = v.state.v_mps;
          break;
        }
      }
    }
    step.reward = reward_fn.Compute(obs);

    for (const sim::VehicleSnapshot& v : sim.GlobalSnapshot()) {
      if (std::fabs(DLon(v.state, step.ego)) <= config.nearby_window_m) {
        step.nearby.push_back(v);
      }
    }
    trace.steps.push_back(std::move(step));
    trace.final_status = status;
    prev_accel = maneuver.accel_mps2;
  }
  return trace;
}

void WriteTraceCsv(const EpisodeTrace& trace, std::ostream& os) {
  os << "time_s,lane,lon_m,v_mps,lane_change,accel_mps2,"
        "r_safety,r_efficiency,r_comfort,r_impact,r_total,observed\n";
  for (const TraceStep& s : trace.steps) {
    os << s.time_s << "," << s.ego.lane << "," << s.ego.lon_m << ","
       << s.ego.v_mps << "," << ToString(s.maneuver.lane_change) << ","
       << s.maneuver.accel_mps2 << "," << s.reward.safety << ","
       << s.reward.efficiency << "," << s.reward.comfort << ","
       << s.reward.impact << "," << s.reward.total << ","
       << s.observed_vehicles << "\n";
  }
}

std::string RenderStep(const TraceStep& step, const RoadConfig& road,
                       double window_m) {
  HEAD_CHECK_GT(window_m, 0.0);
  const int width = 61;  // odd so the ego sits on the center column
  const double meters_per_col = 2.0 * window_m / (width - 1);
  std::vector<std::string> rows(road.num_lanes, std::string(width, '.'));

  auto put = [&](const VehicleState& v, char symbol) {
    if (!road.IsValidLane(v.lane)) return;
    const double d = DLon(v, step.ego);
    if (std::fabs(d) > window_m) return;
    const int col = static_cast<int>(
        std::lround((d + window_m) / meters_per_col));
    rows[v.lane - 1][std::clamp(col, 0, width - 1)] = symbol;
  };
  for (const sim::VehicleSnapshot& v : step.nearby) {
    if (v.id != kEgoVehicleId) put(v.state, 'o');
  }
  put(step.ego, 'E');

  std::ostringstream os;
  os << "t=" << step.time_s << "s  v=" << step.ego.v_mps << "m/s  a="
     << step.maneuver.accel_mps2 << "  " << ToString(step.maneuver.lane_change)
     << "  r=" << step.reward.total << "\n";
  for (int lane = 0; lane < road.num_lanes; ++lane) {
    os << "lane " << lane + 1 << " |" << rows[lane] << "|\n";
  }
  return os.str();
}

}  // namespace head::eval
