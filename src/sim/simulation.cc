#include "sim/simulation.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "sim/acc.h"
#include "sim/idm.h"
#include "sim/krauss.h"
#include "sim/lane_change.h"

namespace head::sim {

const char* ToString(EpisodeStatus s) {
  switch (s) {
    case EpisodeStatus::kRunning:
      return "running";
    case EpisodeStatus::kReachedDestination:
      return "reached_destination";
    case EpisodeStatus::kCollision:
      return "collision";
    case EpisodeStatus::kTimeout:
      return "timeout";
  }
  return "?";
}

obs::EpisodeEnd ToEpisodeEnd(EpisodeStatus s) {
  switch (s) {
    case EpisodeStatus::kRunning:
      return obs::EpisodeEnd::kRunning;
    case EpisodeStatus::kReachedDestination:
      return obs::EpisodeEnd::kArrived;
    case EpisodeStatus::kCollision:
      return obs::EpisodeEnd::kCollision;
    case EpisodeStatus::kTimeout:
      return obs::EpisodeEnd::kTimeout;
  }
  return obs::EpisodeEnd::kRunning;
}

Simulation::Simulation(const SimConfig& config, uint64_t seed)
    : config_(config), rng_(seed) {
  HEAD_CHECK_GT(config_.road.num_lanes, 0);
  HEAD_CHECK_GT(config_.road.length_m, 0.0);
  Reset(seed);
}

void Simulation::Reset(uint64_t seed) {
  rng_ = Rng(seed);
  status_ = EpisodeStatus::kRunning;
  step_count_ = 0;
  last_accels_.clear();

  ego_.id = kEgoVehicleId;
  ego_.state.lane = rng_.UniformInt(1, config_.road.num_lanes);
  ego_.state.lon_m = 0.0;
  ego_.state.v_mps = std::clamp(config_.ego_init_speed_mps,
                                config_.road.v_min_mps,
                                config_.road.v_max_mps);
  fleet_ = SpawnInitialTraffic(config_.road, config_.spawn, ego_.state.lane,
                               ego_.state.lon_m, rng_);
  // Static obstacles: clear any spawned vehicle overlapping them, then
  // append with fresh ids.
  VehicleId next_id = 1;
  for (const Vehicle& v : fleet_) next_id = std::max(next_id, v.id + 1);
  for (Vehicle obstacle : config_.static_obstacles) {
    HEAD_CHECK(config_.road.IsValidLane(obstacle.state.lane));
    obstacle.id = next_id++;
    obstacle.stationary = true;
    std::erase_if(fleet_, [&](const Vehicle& v) {
      return v.state.lane == obstacle.state.lane &&
             std::fabs(v.state.lon_m - obstacle.state.lon_m) <
                 3.0 * kVehicleLengthM;
    });
    fleet_.push_back(std::move(obstacle));
  }

  const size_t slots = fleet_.size() + 1;
  lanes_.resize(config_.road.num_lanes + 2);
  for (std::vector<Slot>& run : lanes_) run.clear();
  for (Slot slot = 0; slot < slots; ++slot) {
    lanes_[SlotState(slot).lane].push_back(slot);
  }
  for (std::vector<Slot>& run : lanes_) {
    std::sort(run.begin(), run.end(), InLaneOrder());
  }
  own_free_.resize(slots);
  generic_free_.resize(slots);
  leader_.resize(slots);
  prev_lons_.resize(fleet_.size());
}

bool Simulation::SlotBefore(Slot a, Slot b) const {
  const Vehicle& va = SlotVehicle(a);
  const Vehicle& vb = SlotVehicle(b);
  if (va.state.lon_m != vb.state.lon_m) return va.state.lon_m < vb.state.lon_m;
  return va.id < vb.id;
}

size_t Simulation::PositionInLane(Slot slot) const {
  const std::vector<Slot>& run = lanes_[SlotState(slot).lane];
  return std::lower_bound(run.begin(), run.end(), slot, InLaneOrder()) -
         run.begin();
}

void Simulation::MoveLane(Slot slot, int from_lane) {
  // The key within a lane, (lon, id), is unchanged by a lane change, so the
  // slot is found in its old lane by binary search.
  std::vector<Slot>& from = lanes_[from_lane];
  const auto at = std::lower_bound(from.begin(), from.end(), slot,
                                   InLaneOrder());
  HEAD_DCHECK(at != from.end() && *at == slot);
  from.erase(at);
  std::vector<Slot>& to = lanes_[SlotState(slot).lane];
  to.insert(std::lower_bound(to.begin(), to.end(), slot, InLaneOrder()),
            slot);
}

Simulation::LanePair Simulation::OwnLaneNeighbors(const std::vector<Slot>& run,
                                                  size_t j) const {
  // Leader: the first entry strictly ahead. Follower: the last entry at or
  // behind, other than j itself; entries tied with j on lon sort after it
  // when their id is larger, so the follower is the last of those if any.
  const double lon = SlotState(run[j]).lon_m;
  size_t q = j + 1;
  while (q < run.size() && SlotState(run[q]).lon_m <= lon) ++q;
  LanePair n;
  if (q < run.size()) n.leader = static_cast<int32_t>(run[q]);
  if (q - 1 != j) {
    n.follower = static_cast<int32_t>(run[q - 1]);
  } else if (j > 0) {
    n.follower = static_cast<int32_t>(run[j - 1]);
  }
  return n;
}

std::vector<VehicleSnapshot> Simulation::GlobalSnapshot() const {
  std::vector<VehicleSnapshot> out;
  out.reserve(fleet_.size() + 1);
  out.push_back({ego_.id, ego_.state});
  for (const Vehicle& v : fleet_) out.push_back({v.id, v.state});
  return out;
}

RoadView Simulation::View() const {
  std::vector<VehicleSnapshot> sorted;
  sorted.reserve(fleet_.size() + 1);
  for (const std::vector<Slot>& run : lanes_) {
    for (const Slot slot : run) {
      const Vehicle& v = SlotVehicle(slot);
      sorted.push_back({v.id, v.state});
    }
  }
  return RoadView::FromSorted(std::move(sorted));
}

const Vehicle* Simulation::EgoNeighbor(bool front) const {
  const Slot ego = static_cast<Slot>(fleet_.size());
  const LanePair n =
      OwnLaneNeighbors(lanes_[ego_.state.lane], PositionInLane(ego));
  const int32_t slot = front ? n.leader : n.follower;
  return slot == kNoSlot ? nullptr : &fleet_[slot];
}

double Simulation::ConventionalAccel(size_t i) {
  const Vehicle& v = fleet_[i];
  const VehicleState* leader =
      leader_[i] == kNoSlot ? nullptr : &SlotState(leader_[i]);
  const double gap = leader != nullptr ? Gap(leader->lon_m, v.state.lon_m)
                                       : 1e9;
  const double leader_v = leader != nullptr ? leader->v_mps : v.state.v_mps;
  const double dv = v.state.v_mps - leader_v;
  double a = 0.0;
  switch (v.model) {
    case CarFollowModel::kIdm:
      a = IdmAccel(v.params, v.state.v_mps, gap, dv, own_free_[i]);
      break;
    case CarFollowModel::kAcc: {
      AccGains gains;
      a = AccAccel(v.params, gains, v.state.v_mps, gap, dv);
      break;
    }
    case CarFollowModel::kKrauss:
      a = KraussAccel(v.params, v.state.v_mps, leader_v, gap,
                      config_.road.dt_s, rng_);
      break;
  }
  return std::clamp(a, -config_.road.a_max_mps2, config_.road.a_max_mps2);
}

void Simulation::ApplyLaneChanges(const Maneuver& ego_maneuver) {
  // Ego first: its lane change is part of the externally decided maneuver.
  const Slot ego = static_cast<Slot>(fleet_.size());
  const int ego_lane = ego_.state.lane;
  ego_.state.lane += LaneDelta(ego_maneuver.lane_change);
  if (ego_.state.lane != ego_lane) MoveLane(ego, ego_lane);

  if (!config_.conventional_lane_changes) return;

  // All conventional changes are decided against one post-ego-change
  // snapshot (simultaneous decisions, as in SUMO's sub-steps), then
  // proposals that would merge into the same gap are conflict-resolved by
  // keeping only the front-most vehicle. One sweep per lane finds every
  // vehicle's neighbours: its own lane's from adjacency in the index, the
  // adjacent lanes' from a cursor per side that only moves forward.
  auto car = [&](int32_t slot) {
    return slot == kNoSlot
               ? MobilCar{}
               : MobilCar{&SlotState(slot), generic_free_[slot]};
  };
  proposals_.clear();
  for (int lane = 1; lane <= config_.road.num_lanes; ++lane) {
    const std::vector<Slot>& run = lanes_[lane];
    const std::vector<Slot>* sides[2] = {&lanes_[lane - 1], &lanes_[lane + 1]};
    size_t ahead[2] = {0, 0};  // first entry of each side strictly ahead
    for (size_t j = 0; j < run.size(); ++j) {
      if (run[j] == ego) continue;
      Vehicle& v = fleet_[run[j]];
      if (v.stationary) continue;
      if (v.lane_change_cooldown > 0) {
        --v.lane_change_cooldown;
        continue;
      }
      // Beyond the destination nothing interacts with the ego anymore.
      if (v.state.lon_m > config_.road.length_m + 50.0) continue;
      const LanePair own = OwnLaneNeighbors(run, j);
      MobilNeighbors n;
      n.cur_leader = own.leader == kNoSlot ? nullptr : &SlotState(own.leader);
      n.old_follower = car(own.follower);
      for (int side = 0; side < 2; ++side) {
        const std::vector<Slot>& other = *sides[side];
        size_t& k = ahead[side];
        while (k < other.size() &&
               SlotState(other[k]).lon_m <= v.state.lon_m) {
          ++k;
        }
        n.new_leader[side] = k < other.size() ? &SlotState(other[k]) : nullptr;
        n.new_follower[side] =
            car(k > 0 ? static_cast<int32_t>(other[k - 1]) : kNoSlot);
      }
      const std::optional<LaneChange> change =
          MobilDecide(v, own_free_[run[j]], n, config_.road);
      if (change.has_value()) {
        proposals_.push_back(
            {run[j], v.state.lane + LaneDelta(*change), v.state.lon_m});
      }
    }
  }
  ResolveLaneChangeConflicts(proposals_);
  for (const LaneChangeProposal& p : proposals_) {
    Vehicle& v = fleet_[p.index];
    const int from_lane = v.state.lane;
    v.state.lane = p.target_lane;
    v.lane_change_cooldown = config_.lane_change_cooldown_steps;
    MoveLane(static_cast<Slot>(p.index), from_lane);
  }
}

bool Simulation::EgoCollided(double ego_prev_lon) const {
  if (!config_.road.IsValidLane(ego_.state.lane)) return true;  // boundary hit
  const Slot ego = static_cast<Slot>(fleet_.size());
  for (const Slot slot : lanes_[ego_.state.lane]) {
    if (slot == ego) continue;
    const double d_now = fleet_[slot].state.lon_m - ego_.state.lon_m;
    if (std::fabs(d_now) < kVehicleLengthM) return true;
    // Tunneling guard: relative position sign flipped within the step.
    const double d_prev = prev_lons_[slot] - ego_prev_lon;
    if (d_prev * d_now < 0.0) return true;
  }
  return false;
}

EpisodeStatus Simulation::Step(const Maneuver& ego_maneuver) {
  if (status_ != EpisodeStatus::kRunning) return status_;
  static obs::Counter& steps_counter = obs::GetCounter("sim.steps");
  static obs::Histogram& step_latency = obs::LatencyHistogram("sim.step");
  HEAD_SCOPE("sim.step", step_latency);
  steps_counter.Add();

  if (std::fabs(ego_maneuver.accel_mps2) > config_.road.a_max_mps2) {
    HEAD_LOG_EVERY_N(Warning, 200)
        << "ego accel " << ego_maneuver.accel_mps2
        << " m/s^2 exceeds road a_max " << config_.road.a_max_mps2
        << "; kinematics will clamp it";
  }

  const double ego_prev_lon = ego_.state.lon_m;
  for (size_t i = 0; i < fleet_.size(); ++i) {
    prev_lons_[i] = fleet_[i].state.lon_m;
  }
  // IDM free-road terms: speeds hold until integration, so one evaluation
  // per vehicle serves MOBIL and car-following alike.
  for (size_t i = 0; i < fleet_.size(); ++i) {
    if (!fleet_[i].stationary) {
      own_free_[i] = IdmFreeTerm(fleet_[i].params, fleet_[i].state.v_mps);
    }
  }
  if (config_.conventional_lane_changes) {
    const DriverParams generic;
    for (Slot slot = 0; slot < generic_free_.size(); ++slot) {
      generic_free_[slot] = IdmFreeTerm(generic, SlotState(slot).v_mps);
    }
  }

  // Phase 1: lateral moves (ego maneuver + MOBIL for conventional fleet).
  ApplyLaneChanges(ego_maneuver);

  // Phase 2: longitudinal accelerations against the post-change layout.
  // Leaders come off the index; the accelerations are then taken in fleet
  // order, which keeps the Krauss draws in their order.
  for (const std::vector<Slot>& run : lanes_) {
    for (size_t k = 0; k < run.size(); ++k) {
      leader_[run[k]] = OwnLaneNeighbors(run, k).leader;
    }
  }
  last_accels_.resize(fleet_.size());
  for (size_t i = 0; i < fleet_.size(); ++i) {
    last_accels_[i] = fleet_[i].stationary ? 0.0 : ConventionalAccel(i);
  }

  // Phase 3: integrate, then restore the index order: a step moves few
  // vehicles past each other, so insertion is linear.
  const Maneuver keep_lane_only{LaneChange::kKeep, ego_maneuver.accel_mps2};
  ego_.state = StepKinematics(ego_.state, keep_lane_only, config_.road);
  for (size_t i = 0; i < fleet_.size(); ++i) {
    if (fleet_[i].stationary) continue;
    fleet_[i].state = StepKinematics(
        fleet_[i].state, Maneuver{LaneChange::kKeep, last_accels_[i]},
        config_.road);
  }
  for (std::vector<Slot>& run : lanes_) {
    for (size_t k = 1; k < run.size(); ++k) {
      const Slot slot = run[k];
      size_t m = k;
      for (; m > 0 && SlotBefore(slot, run[m - 1]); --m) run[m] = run[m - 1];
      run[m] = slot;
    }
  }

  ++step_count_;

  // Phase 4: episode termination.
  if (EgoCollided(ego_prev_lon)) {
    status_ = EpisodeStatus::kCollision;
  } else if (ego_.state.lon_m >= config_.road.length_m) {
    status_ = EpisodeStatus::kReachedDestination;
  } else if (step_count_ >= config_.max_steps) {
    status_ = EpisodeStatus::kTimeout;
  }

  if (obs::RecordingEnabled()) {
    // The flight recorder's view of the applied maneuver and its immediate
    // outcome; perception/decision layers fill their slices upstream and the
    // step loop commits downstream.
    obs::StepRecord& rec = obs::ScratchRecord();
    rec.step = step_count_;
    rec.time_s = time_s();
    rec.ego_lane = ego_.state.lane;
    rec.ego_lon_m = ego_.state.lon_m;
    rec.ego_v_mps = ego_.state.v_mps;
    rec.lane_change = static_cast<int8_t>(LaneDelta(ego_maneuver.lane_change));
    rec.accel_mps2 = ego_maneuver.accel_mps2;
    rec.end = ToEpisodeEnd(status_);
  }
  return status_;
}

}  // namespace head::sim
